"""Seeded workloads: input generators, the timed mock archive, the stage
sequence of one pass, and the checks that a pass's outputs are correct.

Each workload generates its inputs from the seed alone and records the
outcome counts those inputs must produce (errors, empty results, roots
added, bucket sizes), so the checks compare against the generator's ground
truth rather than against the program's own arithmetic.
"""

from __future__ import annotations

import datetime
import json
import os
import random
import string
import sys
import threading
import time
from collections import Counter, defaultdict

from waysample.cdx import CdxRecord, Timestamp14
from waysample.cli import timemap_filename
from waysample.mockserver import MockCdxServer
from waysample.sampler import year_bucket_label
from waysample.surt import surt_text_for_url

# PipelineConfig.retry_cap, written into every network stage's config file
RETRY_CAP = 5


class TimedMockServer(MockCdxServer):
    """MockCdxServer that also times its handler and counts the faults and
    bytes it serves, so server time can be split from client time."""

    def __init__(self, corpus, page_size):
        super().__init__(corpus, page_size)
        # a short shutdown poll, so stopping a set-up's server costs no
        # half-second wait (serve_forever's default poll interval)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.02}, daemon=True)
        self.handle_busy_s = 0.0
        self.faults_served = 0
        self.bytes_sent = 0

    def _handle(self, handler):
        start = time.perf_counter()
        try:
            super()._handle(handler)
        finally:
            with self._lock:
                self.handle_busy_s += time.perf_counter() - start

    def _respond(self, path):
        status, body = super()._respond(path)
        with self._lock:
            self.bytes_sent += len(body)
        return status, body

    def _pop_fault(self, key):
        fault = super()._pop_fault(key)
        if fault is not None:
            with self._lock:
                self.faults_served += 1
        return fault

    def counters(self) -> dict:
        """The running totals; a stage's share is their change across it."""
        with self._lock:
            return {"requests": self.request_count,
                    "handle_busy_s": self.handle_busy_s,
                    "faults_served": self.faults_served,
                    "bytes_sent": self.bytes_sent}

    def reset(self, faults: list[tuple[str, object, list[int]]]) -> None:
        """Re-arm the fault script before a pass; faults are consumed as
        they are served, so every pass must start from the same script."""
        with self._lock:
            self._faults.clear()
            self.max_concurrency = 0
        for urlkey, kind, statuses in faults:
            self.schedule_faults(urlkey, kind, statuses)


# -- helpers -----------------------------------------------------------------


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def first_records(corpus: list[CdxRecord]) -> dict[str, CdxRecord]:
    """urlkey -> earliest record, the answer to a limit-1 CDX query."""
    first: dict[str, CdxRecord] = {}
    for record in corpus:
        best = first.get(record.urlkey)
        if best is None or record.timestamp.raw < best.timestamp.raw:
            first[record.urlkey] = record
    return first


def selected_urls(out: str) -> list[str]:
    sample_dir = os.path.join(out, "sample")
    urls = []
    for name in sorted(os.listdir(sample_dir)):
        if name.startswith("bucket_"):
            urls += read_lines(os.path.join(sample_dir, name))
    return urls


def count_records(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


class Checks:
    """Collects failed expectations of one pass."""

    def __init__(self):
        self.problems: list[str] = []

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)


def check_counts_add_up(checks: Checks, manifests: dict) -> None:
    """Every stage's outcome counts add up to its input count."""
    parts = {
        "filter": ("valid", "invalid"),
        "classify": ("likely_html", "other"),
        "fetch-first": ("archived", "empty", "skipped", "error"),
        "fetch": ("fetched", "empty", "resumed", "skipped", "error"),
    }
    for stage, names in parts.items():
        if stage in manifests:
            counts = manifests[stage]["counts"]
            checks.equal(f"{stage} counts sum", sum(counts[n] for n in names),
                         counts["input"])
    if "sample" in manifests:
        counts = manifests["sample"]["counts"]
        for bucket in counts["buckets"]:
            checks.equal(f"sample bucket {bucket['label']} selected",
                         bucket["selected"], bucket["calibrated_total"])
        checks.equal("sample selected_total",
                     sum(b["selected"] for b in counts["buckets"]),
                     counts["selected_total"])
    if "rehydrate" in manifests and "fetch" in manifests:
        fetch = manifests["fetch"]["counts"]
        checks.equal("rehydrate timemaps", manifests["rehydrate"]["counts"]["timemaps"],
                     fetch["fetched"] + fetch["empty"])


def check_sample_output(checks: Checks, out: str, manifest: dict) -> None:
    """Bucket files hold exactly the selected count of distinct URLs."""
    for bucket in manifest["counts"]["buckets"]:
        lines = read_lines(os.path.join(out, "sample", f"bucket_{bucket['label']}.txt"))
        checks.equal(f"bucket_{bucket['label']}.txt lines", len(lines), bucket["selected"])
        checks.equal(f"bucket_{bucket['label']}.txt distinct", len(set(lines)), len(lines))


def check_timemaps(checks: Checks, out: str, fetched: list[str],
                   record_counts: dict[str, int]) -> int:
    """Each fetched and each rehydrated TimeMap holds the corpus's record
    count for its URL. Returns the total record count."""
    total = 0
    for url in fetched:
        want = record_counts[surt_text_for_url(url)]
        name = timemap_filename(url)
        for directory in ("timemaps", "hydrated"):
            path = os.path.join(out, directory, name)
            got = count_records(path) if os.path.exists(path) else None
            checks.equal(f"{directory}/{name} records", got, want)
        total += want
    return total


def check_fetch_first(checks: Checks, out: str, want_rows: list[str]) -> None:
    rows = read_lines(os.path.join(out, "first.tsv"))
    checks.equal("first.tsv rows", len(rows), len(want_rows))
    wrong = [f"{got!r} != {want!r}" for got, want in zip(rows, want_rows) if got != want]
    checks.true(f"first.tsv differs from ground truth in {len(wrong)} rows: {wrong[:3]}",
                not wrong)


def fetch_report(out: str) -> dict[str, str]:
    return dict(line.split("\t") for line in read_lines(os.path.join(out, "fetch_report.tsv")))


def filter_and_classify(run, raw: str, out: str) -> None:
    """The filter and classify stages over the raw URL list; the URLs that
    filter judges valid go to valid.txt."""
    run.stage("filter", [raw, "-o", f"{out}/verdicts.tsv"])
    run.stage("classify", [raw, "-o", f"{out}/classes.tsv"])
    rows = [row.split("\t") for row in read_lines(f"{out}/verdicts.tsv")]
    write_lines(f"{out}/valid.txt", [row[0] for row in rows if row[1] == "1"])


def network_config(path: str, backoff_base: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"politeness_limit": 2, "retry_cap": RETRY_CAP,
                   "backoff_base": backoff_base}, fh)


# -- pipeline-lan ------------------------------------------------------------


def _acceptance_corpus():
    """The acceptance end-to-end corpus, imported from the test suite so the
    workload cannot drift from acceptance criterion 7."""
    tests_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    from test_acceptance import _build_e2e_corpus
    return _build_e2e_corpus()


class PipelineLan:
    """filter, classify, fetch-first, sample, fetch, rehydrate, stats on the
    acceptance corpus (3,200 URLs, ~51k records, page_size 100); the mock
    archive adds no latency and no faults. The seed shuffles the input order
    and seeds the sampler."""

    name = "pipeline-lan"
    target = 300

    def __init__(self, seed: int, scale: float, inputs: str):
        corpus, urls = _acceptance_corpus()
        rng = random.Random(f"pipeline-lan|{seed}")
        if scale < 1:  # whole domains, so every kept domain keeps its root
            hosts = sorted({u.split("/")[2] for u in urls})
            kept = set(rng.sample(hosts, max(1, round(len(hosts) * scale))))
            urls = [u for u in urls if u.split("/")[2] in kept]
            keys = {surt_text_for_url(u) for u in urls}
            corpus = [r for r in corpus if r.urlkey in keys]
        rng.shuffle(urls)
        self.seed = seed
        self.raw = os.path.join(inputs, "urls.txt")
        write_lines(self.raw, urls + ["https://*/robots.txt", "https:///?x=1"])
        self.n_raw = len(urls) + 2
        self.n_valid = len(urls)
        self.record_counts = Counter(r.urlkey for r in corpus)
        first = first_records(corpus)
        self.first_rows = []
        for url in urls:
            rec = first[surt_text_for_url(url)]
            self.first_rows.append(f"{url}\t{rec.timestamp.raw}\t{rec.mime}\tok")
        self.server = TimedMockServer(corpus, page_size=100).start()
        self.faults: list = []
        self.config = os.path.join(inputs, "network.json")
        network_config(self.config, backoff_base=0.01)

    def close(self) -> None:
        self.server.stop()

    def run_pass(self, run, out: str) -> None:
        ep = ["--endpoint", self.server.endpoint, "--politeness", "2",
              "--config", self.config]
        filter_and_classify(run, self.raw, out)
        run.stage("fetch-first", [f"{out}/valid.txt", "-o", f"{out}/first.tsv", *ep],
                  log=True)
        run.stage("sample", ["--first-captures", f"{out}/first.tsv",
                             "--out-dir", f"{out}/sample", "--target", str(self.target),
                             "--seed", str(self.seed)])
        write_lines(f"{out}/selected.txt", selected_urls(out))
        run.stage("fetch", [f"{out}/selected.txt", "--out-dir", f"{out}/timemaps",
                            "--report", f"{out}/fetch_report.tsv", *ep], log=True)
        run.stage("rehydrate", ["--in-dir", f"{out}/timemaps",
                                "--out-dir", f"{out}/hydrated",
                                "--unresolved", f"{out}/unresolved.tsv"])
        run.stage("stats", ["--first-captures", f"{out}/first.tsv",
                            "--urls", f"{out}/valid.txt", "--sampled", f"{out}/selected.txt",
                            "--timemap-dir", f"{out}/hydrated", "--out-dir", f"{out}/stats"])

    def check(self, out: str, manifests: dict) -> tuple[list[str], dict]:
        checks = Checks()
        check_counts_add_up(checks, manifests)
        counts = {stage: m["counts"] for stage, m in manifests.items()}
        checks.equal("filter invalid", counts["filter"]["invalid"], 2)
        # every valid acceptance URL is a root or a pageN.html
        checks.equal("classify likely_html", counts["classify"]["likely_html"], self.n_valid)
        check_fetch_first(checks, out, self.first_rows)
        sample = manifests["sample"]
        check_sample_output(checks, out, sample)
        checks.equal("sample missing_roots", sample["counts"]["missing_roots"], 0)
        if self.n_valid == 3200:  # the full corpus: acceptance 7's expectations
            labels = [b["label"] for b in sample["counts"]["buckets"]]
            checks.equal("sample buckets", labels, ["1996-2000", "2001", "2002", "2003"])
            for b in sample["counts"]["buckets"]:
                checks.true(f"bucket {b['label']} calibrated_total {b['calibrated_total']}"
                            " outside 0.8-1.2 of target",
                            0.8 * self.target <= b["calibrated_total"] <= 1.2 * self.target)
        report = fetch_report(out)
        fetched = [u for u, outcome in report.items() if outcome == "ok"]
        checks.equal("fetch outcomes", Counter(report.values()), Counter({"ok": len(report)}))
        checks.equal("fetch error count", counts["fetch"]["error"], 0)
        checks.equal("fetch inputs", sorted(report), sorted(selected_urls(out)))
        records = check_timemaps(checks, out, fetched, self.record_counts)
        checks.equal("stats timemaps", counts["stats"]["timemaps"], len(fetched))
        checks.equal("stats first_capture_years", counts["stats"]["first_capture_years"],
                     self.n_valid)
        return checks.problems, {"first_rows": self.n_valid, "rehydrate_records": records}


# -- fetch-wan ---------------------------------------------------------------


def _label(rng: random.Random, n: int = 6) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _spread(lo: int, hi: int, n: int, rng: random.Random) -> list[int]:
    """n integers evenly spaced over [lo, hi], in seeded order."""
    values = [lo + round((hi - lo) * (i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _history(rng: random.Random, url: str, n: int, first_year: int) -> list[CdxRecord]:
    """n captures of url with distinct timestamps from first_year to 2021.
    A fifth are revisits: half point at one of the last 20 full captures,
    half at one more than 1,000 full captures back where the history is that
    long, beyond the rehydration cache, and at any earlier one otherwise."""
    key = surt_text_for_url(url)
    origin = datetime.datetime(first_year, 1, 1)
    span = int((datetime.datetime(2022, 1, 1) - origin).total_seconds())
    # the first capture falls in first_year; the rest anywhere up to 2021
    offsets = sorted(rng.sample(range(span), n - 1))
    first = rng.randrange(365 * 86400)
    while first in offsets:
        first = rng.randrange(365 * 86400)
    offsets.insert(0, first)
    offsets.sort()
    records: list[CdxRecord] = []
    fulls: list[CdxRecord] = []
    for offset in offsets:
        ts = Timestamp14((origin + datetime.timedelta(seconds=offset)).strftime("%Y%m%d%H%M%S"))
        if fulls and rng.random() < 0.2:
            pool = fulls[-20:] if rng.random() < 0.5 else (fulls[:-1000] or fulls)
            records.append(CdxRecord(key, ts, url, "warc/revisit", "-",
                                     rng.choice(pool).digest, 0))
        else:
            digest = "%020X" % rng.getrandbits(80)
            status = "200" if rng.random() < 0.9 else "404"
            full = CdxRecord(key, ts, url, "text/html", status, digest, rng.randint(500, 9000))
            records.append(full)
            fulls.append(full)
    return records


class FetchWan:
    """filter, classify, fetch-first, sample --endpoint, reintegrate, fetch,
    rehydrate against a slow, flaky archive: every request waits DELAY_S,
    a few percent get one transient 503, a few URLs fail for good, some
    histories span dozens of pages, and some hosts appear only through deep
    links so sample looks their roots up."""

    name = "fetch-wan"
    DELAY_S = 0.010
    PAGE_SIZE = 50
    TRANSIENT_SHARE = 0.04
    YEARS = (2016, 2021)

    def __init__(self, seed: int, scale: float, inputs: str):
        rng = random.Random(f"fetch-wan|{seed}")
        self.seed = seed
        corpus: list[CdxRecord] = []
        inputs_urls: list[str] = []
        roots: list[str] = []
        pages: list[str] = []
        n_hosts = max(4, round(20 * scale))
        n_long = max(1, round(4 * scale))
        n_deep = max(2, round(6 * scale))
        # sizes and years are evenly spread, in seeded order, so every seed
        # asks the archive for about the same amount of work
        n_all = n_hosts + n_deep
        starts = _spread(1997, 2012, n_all, rng)
        long_sizes = _spread(1100, 1600, n_long, rng)
        page_counts = _spread(2, 6, n_all, rng)
        sizes = iter(_spread(5, 120, n_all + sum(page_counts), rng))
        for h in range(n_all):
            host = f"w{h:03d}{_label(rng)}.com"
            root = f"http://{host}/"
            deep_only = h >= n_hosts
            n_root = long_sizes[h] if h < n_long else next(sizes)
            if not (deep_only and h == n_hosts):  # one deep-link host's root is unarchived
                corpus += _history(rng, root, n_root, starts[h])
            if not deep_only:
                inputs_urls.append(root)
                roots.append(root)
            for j in range(page_counts[h]):
                url = f"http://{host}/{_label(rng, 4)}{j}.html"
                corpus += _history(rng, url, next(sizes), starts[h] + j % 4)
                inputs_urls.append(url)
                if not deep_only:
                    pages.append(url)
        absent = [f"http://absent{i}{_label(rng)}.org/" for i in range(3)]
        inputs_urls += absent
        rng.shuffle(inputs_urls)

        popular = f"popular{_label(rng)}.com"
        candidates = []
        n_years = self.YEARS[1] - self.YEARS[0] + 1
        for i in range(max(n_years, round(60 * scale))):
            url = f"http://{popular}/item{i}.html"
            year = self.YEARS[0] + i % n_years
            corpus += _history(rng, url, rng.randint(3, 20), year)
            candidates.append(url)
        rng.shuffle(candidates)
        self.per_year_min = 3 if scale >= 1 else 1

        # permanent failures: 404 on a first-capture query, 404 on a page
        # count, and one page that fails every attempt
        rng_f = random.Random(f"fetch-wan|faults|{seed}")
        first_404 = rng_f.sample(pages, 3)
        fetch_404 = rng_f.sample(roots[n_long:], 2)
        exhausted = roots[0]
        key = surt_text_for_url
        faults = [(key(u), "limit", [404]) for u in first_404]
        faults += [(key(u), "numpages", [404]) for u in fetch_404]
        faults += [(key(exhausted), 2, [503] * RETRY_CAP)]
        permanent = {key(u) for u in first_404 + fetch_404 + [exhausted]}
        for url in sorted({r.original for r in corpus}):
            k = key(url)
            if k in permanent:
                continue
            for kind in ["limit", "numpages"] + list(range(3)):
                if rng_f.random() < self.TRANSIENT_SHARE:
                    faults.append((k, kind, [503]))
        self.faults = faults
        self.first_errors = set(first_404)
        self.fetch_errors = set(fetch_404) | {exhausted}
        self.roots_added = n_deep - 1
        self.missing_roots = n_deep

        first = first_records(corpus)
        self.first_rows = []
        for url in inputs_urls:
            rec = first.get(key(url))
            if url in self.first_errors:
                self.first_rows.append(f"{url}\t-\t-\terror")
            elif rec is None:
                self.first_rows.append(f"{url}\t-\t-\tempty")
            else:
                self.first_rows.append(f"{url}\t{rec.timestamp.raw}\t{rec.mime}\tok")
        self.n_raw = len(inputs_urls)
        self.record_counts = Counter(r.urlkey for r in corpus)
        self.raw = os.path.join(inputs, "urls.txt")
        write_lines(self.raw, inputs_urls)
        self.candidates = os.path.join(inputs, "popular.txt")
        write_lines(self.candidates, candidates)
        self.popular = popular
        self.config = os.path.join(inputs, "network.json")
        # 2**(RETRY_CAP-1) times this base bounds one URL's backoff at ~20 ms
        network_config(self.config, backoff_base=0.001)
        self.server = TimedMockServer(corpus, page_size=self.PAGE_SIZE)
        self.server.schedule_delay(None, None, self.DELAY_S)
        self.server.start()

    def close(self) -> None:
        self.server.stop()

    def run_pass(self, run, out: str) -> None:
        ep = ["--endpoint", self.server.endpoint, "--config", self.config]
        filter_and_classify(run, self.raw, out)
        run.stage("fetch-first", [f"{out}/valid.txt", "-o", f"{out}/first.tsv",
                                  "--politeness", "2", *ep], log=True)
        run.stage("sample", ["--first-captures", f"{out}/first.tsv",
                             "--out-dir", f"{out}/sample", "--target", "8",
                             "--seed", str(self.seed), *ep])
        years = f"{self.YEARS[0]}-{self.YEARS[1]}"
        run.stage("reintegrate", [self.candidates, "--domain", self.popular,
                                  "-o", f"{out}/reintegrated.tsv", "--years", years,
                                  "--per-year-min", str(self.per_year_min),
                                  "--seed", str(self.seed), *ep], log=True)
        reintegrated = [row.split("\t")[1] for row in read_lines(f"{out}/reintegrated.tsv")]
        write_lines(f"{out}/selected.txt", selected_urls(out) + reintegrated)
        run.stage("fetch", [f"{out}/selected.txt", "--out-dir", f"{out}/timemaps",
                            "--report", f"{out}/fetch_report.tsv",
                            "--politeness", "2", *ep], log=True)
        run.stage("rehydrate", ["--in-dir", f"{out}/timemaps",
                                "--out-dir", f"{out}/hydrated",
                                "--unresolved", f"{out}/unresolved.tsv"])

    def check(self, out: str, manifests: dict) -> tuple[list[str], dict]:
        checks = Checks()
        check_counts_add_up(checks, manifests)
        counts = {stage: m["counts"] for stage, m in manifests.items()}
        checks.equal("filter invalid", counts["filter"]["invalid"], 0)
        checks.equal("classify likely_html", counts["classify"]["likely_html"], self.n_raw)
        check_fetch_first(checks, out, self.first_rows)
        checks.equal("fetch-first error", counts["fetch-first"]["error"], len(self.first_errors))
        sample = manifests["sample"]
        check_sample_output(checks, out, sample)
        checks.equal("sample missing_roots", counts["sample"]["missing_roots"],
                     self.missing_roots)
        checks.equal("sample roots_added", counts["sample"]["roots_added"], self.roots_added)
        checks.equal("reintegrate unmet_years", counts["reintegrate"]["unmet_years"], [])
        report = fetch_report(out)
        errors = {u for u, outcome in report.items() if outcome == "error"}
        checks.equal("fetch errors", sorted(errors), sorted(self.fetch_errors))
        checks.equal("fetch error count", counts["fetch"]["error"], len(self.fetch_errors))
        fetched = [u for u, outcome in report.items() if outcome == "ok"]
        checks.equal("fetch outcomes", len(fetched) + len(errors), len(report))
        records = check_timemaps(checks, out, fetched, self.record_counts)
        return checks.problems, {"first_rows": self.n_raw, "rehydrate_records": records}


# -- index-offline -----------------------------------------------------------

# (path template, likely-HTML under the extension heuristics)
PAGE_TEMPLATES = [
    ("/{w}{j}.html", True), ("/{w}{j}.php", True), ("/{w}/{j}/", True),
    ("/{w}{j}.asp", True), ("/img/{w}{j}.jpg", False), ("/doc/{w}{j}.pdf", False),
]


class IndexOffline:
    """filter, classify, sample, stats on a seeded power-law index: no
    endpoint, no network. Domain sizes follow the Pareto quantiles of
    ALPHA, so head domains hold thousands of URLs on every seed; the seed
    picks names, paths, years and which rows are special."""

    name = "index-offline"
    ALPHA = 1.4
    URLS = 100_000
    TARGET = 2000

    def __init__(self, seed: int, scale: float, inputs: str):
        rng = random.Random(f"index-offline|{seed}")
        n_target = max(200, round(self.URLS * scale))
        # domain i of n has Pareto quantile size (n / (i + 0.5)) ** (1 / ALPHA),
        # whose floors average about 3.05 URLs per domain at ALPHA 1.4
        n_domains = round(n_target / 3.05)
        sizes = [int((n_domains / (i + 0.5)) ** (1 / self.ALPHA)) for i in range(n_domains)]
        raw: list[str] = []
        rows: list[tuple[str, str | None, str]] = []  # (url, ts or None, host)
        likely_html = 0
        for d, size in enumerate(sizes):
            host = f"{_label(rng, 5)}{d}.{rng.choice(['com', 'net', 'org', 'de'])}"
            if rng.random() < 0.1:
                host = "www." + host
            start = rng.choice(range(1994, 2021))
            paths = []
            if size == 1 or rng.random() > 0.05:  # 5% of larger domains: deep links only
                paths.append(("/", True))
            if size > 1 and rng.random() < 0.2:
                paths.append(("/index.html", True))
            while len(paths) < size:
                j = len(paths)
                template, html = rng.choice(PAGE_TEMPLATES)
                path = template.format(w=_label(rng, 3), j=j)
                if rng.random() < 0.02:
                    path += "?PHPSESSID=" + "".join(rng.choice(string.hexdigits[:16])
                                                    for _ in range(32))
                paths.append((path, html))
            for path, html in paths:
                url = f"http://{host}{path}"
                raw.append(url)
                likely_html += html
                if rng.random() < 0.03:
                    rows.append((url, None, host))  # never archived
                    continue
                year = min(2021, start + min(int(rng.expovariate(0.7)), 10))
                ts = (f"{year:04d}{rng.randint(1, 12):02d}{rng.randint(1, 28):02d}"
                      f"{rng.randint(0, 23):02d}{rng.randint(0, 59):02d}{rng.randint(0, 59):02d}")
                rows.append((url, ts, host))
        n_invalid = max(2, len(raw) // 100)
        n_wild = max(2, len(raw) // 200)
        invalid = [rng.choice(["http:///p{}", "ftp://files{}.example/x", "https://*.w{}.com/"])
                   .format(i) for i in range(n_invalid)]
        wild = [f"http://{_label(rng)}{i}.com/dir/*" for i in range(n_wild)]
        raw += invalid + wild
        # wildcard URLs parse (valid) and their last segment has no extension
        likely_html += n_wild
        rng.shuffle(raw)
        rng.shuffle(rows)
        duplicates = [r for r in rows if r[1] is not None and rng.random() < 0.01]
        for r in duplicates:
            rows.insert(rng.randrange(len(rows) + 1), r)

        lines = [f"{url}\t{ts}\ttext/html\tok" if ts else f"{url}\t-\t-\tempty"
                 for url, ts, _ in rows]
        lines += [f"{url}\t-\t-\tskipped" for url in invalid + wild]
        self.seed = seed
        self.raw = os.path.join(inputs, "urls.txt")
        write_lines(self.raw, raw)
        self.first = os.path.join(inputs, "first.tsv")
        write_lines(self.first, lines)
        self.n_raw = len(raw)
        self.n_first_rows = len(lines)
        self.n_invalid = n_invalid
        self.likely_html = likely_html

        archived = [(url, ts, host) for url, ts, host in rows if ts]
        self.entries = len(archived)
        self.year_counts = Counter(int(ts[:4]) for _, ts, _ in archived)
        self.dropped = sum(n for year, n in self.year_counts.items() if year < 1996)
        with_root = {host for url, _, host in archived if url.endswith(host + "/")}
        self.missing_roots = len({host for _, _, host in archived} - with_root)
        bucket_urls: dict[str, set] = defaultdict(set)
        for url, ts, host in archived:
            label = year_bucket_label(int(ts[:4]))
            if label:
                bucket_urls[label].add(url)
        self.bucket_urls = {label: len(u) for label, u in sorted(bucket_urls.items())}
        self.server = None
        self.faults: list = []

    def close(self) -> None:
        pass

    def run_pass(self, run, out: str) -> None:
        filter_and_classify(run, self.raw, out)
        run.stage("sample", ["--first-captures", self.first, "--out-dir", f"{out}/sample",
                             "--target", str(self.TARGET), "--seed", str(self.seed)])
        write_lines(f"{out}/selected.txt", selected_urls(out))
        run.stage("stats", ["--first-captures", self.first, "--urls", f"{out}/valid.txt",
                            "--sampled", f"{out}/selected.txt", "--out-dir", f"{out}/stats"])

    def check(self, out: str, manifests: dict) -> tuple[list[str], dict]:
        checks = Checks()
        check_counts_add_up(checks, manifests)
        counts = {stage: m["counts"] for stage, m in manifests.items()}
        checks.equal("filter invalid", counts["filter"]["invalid"], self.n_invalid)
        checks.equal("classify likely_html", counts["classify"]["likely_html"],
                     self.likely_html)
        sample = counts["sample"]
        checks.equal("sample input", sample["input"], self.entries)
        checks.equal("sample dropped_pre_1996", sample["dropped_pre_1996"], self.dropped)
        checks.equal("sample missing_roots", sample["missing_roots"], self.missing_roots)
        checks.equal("sample roots_added", sample["roots_added"], 0)
        checks.equal("sample bucket urls", {b["label"]: b["urls"] for b in sample["buckets"]},
                     self.bucket_urls)
        check_sample_output(checks, out, manifests["sample"])
        years = read_lines(os.path.join(out, "stats", "first_capture_years.csv"))[1:]
        checks.equal("first_capture_years.csv",
                     {int(y): int(n) for y, n in (line.split(",") for line in years)},
                     dict(self.year_counts))
        return checks.problems, {"first_rows": self.n_first_rows, "rehydrate_records": 0}


WORKLOADS = {w.name: w for w in (PipelineLan, FetchWan, IndexOffline)}

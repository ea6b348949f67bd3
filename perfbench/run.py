"""waysample pipeline benchmark.

    python3 perfbench/run.py --workload pipeline-lan --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, starts the mock archive in
this process, and runs the workload's CLI stages as child processes
(``python -m waysample.cli ...`` with ``PYTHONPATH=src``), pass after pass,
until ``--seconds`` have gone and at least two passes have run. Every pass
is checked against the generator's ground truth, and all passes of a run
must produce byte-identical outputs (manifests and logs excepted).

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts stage processes launched and ``failed`` those that
exited with an error. A failed check reports ``correct: false`` and no
metrics, and exits with code 1. Metric values are medians over the passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUPS = 3  # setup_s is the median of this many set-ups
RUN_LIMIT_S = 170  # a run must end within 180 s
STAGES = ["filter", "classify", "fetch-first", "sample", "reintegrate", "fetch",
          "rehydrate", "stats"]
LOGGED_STAGES = ["fetch-first", "reintegrate", "fetch"]


class StageFailed(RuntimeError):
    pass


class Spawner:
    """Client of spawner.py, the small process that launches every stage."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], log: str, timeout: float) -> dict:
        env = dict(os.environ, PYTHONPATH=SRC)
        request = {"argv": argv, "env": env, "cwd": ROOT, "log": log, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Pass:
    """One run of a workload's stages into its own directory."""

    def __init__(self, spawner: Spawner, workload, directory: str, traced: bool,
                 trace_id: str, deadline: float):
        self.spawner = spawner
        self.workload = workload
        self.out = os.path.join(directory, "out")
        self.meta = os.path.join(directory, "meta")
        os.makedirs(self.out)
        os.makedirs(self.meta)
        self.traced = traced
        self.trace_id = trace_id
        self.deadline = deadline
        self.results: dict[str, dict] = {}
        self.steal_s = 0.0
        self.max_concurrency = 0

    def stage(self, name: str, args: list[str], log: bool = False) -> None:
        args = [name, *args, "--manifest", f"{self.meta}/{name}.json"]
        if log:
            args += ["--log", f"{self.meta}/{name}.log.tsv"]
        if self.traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"),
                    "--out", f"{self.meta}/{name}.trace.json",
                    "--trace-id", self.trace_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "waysample.cli", *args]
        server = self.workload.server
        before = server.counters() if server else None
        result = self.spawner.run(argv, f"{self.meta}/{name}.out",
                                  max(1.0, self.deadline - time.monotonic()))
        if server:
            after = server.counters()
            result["server"] = {k: after[k] - before[k] for k in after}
        self.results[name] = result
        if result["returncode"] != 0:
            with open(f"{self.meta}/{name}.out", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise StageFailed(f"{name} exited with {result['returncode']}:\n{tail}")

    def manifests(self) -> dict:
        out = {}
        for name in self.results:
            with open(f"{self.meta}/{name}.json", encoding="utf-8") as fh:
                out[name] = json.load(fh)
        return out

    def wall(self, name: str) -> float:
        r = self.results[name]
        return r["end"] - r["start"]

    def snapshot(self) -> dict[str, str]:
        """relative path -> sha256 of every output file."""
        digests = {}
        for dirpath, _, names in os.walk(self.out):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, self.out)] = hashlib.sha256(fh.read()).hexdigest()
        return digests


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs; a
    diagnostic for noisy runs, 0 where /proc/stat is unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


# -- metrics -----------------------------------------------------------------


def end_to_end(p: Pass) -> dict[str, float]:
    first = min(r["start"] for r in p.results.values())
    last = max(r["end"] for r in p.results.values())
    return {
        "wall_s": last - first,
        "peak_rss_mb": max(r["maxrss_kb"] for r in p.results.values()) / 1024,
    }


def stage_rates(p: Pass, facts: dict, manifests: dict) -> dict[str, float]:
    """Items per second of stage wall time, 0 where a workload lacks the
    stage, and the share of attempted URLs that fetch-first and fetch
    report as errors."""
    counts = {stage: m["counts"] for stage, m in manifests.items()}
    ff = counts.get("fetch-first", {})
    fetch = counts.get("fetch", {})

    def rate(items, *stages):
        if not all(s in p.results for s in stages):
            return 0.0
        return items / sum(p.wall(s) for s in stages)
    errors = ff.get("error", 0) + fetch.get("error", 0)
    attempted = (ff.get("input", 0) - ff.get("skipped", 0) + fetch.get("input", 0)
                 - fetch.get("skipped", 0) - fetch.get("resumed", 0))
    return {
        "filter_urls_per_s": rate(counts["filter"]["input"], "filter", "classify"),
        "fetch_first_urls_per_s": rate(ff.get("input", 0), "fetch-first"),
        "sample_rows_per_s": rate(facts["first_rows"], "sample"),
        "fetch_urls_per_s": rate(sum(fetch.get(k, 0) for k in ("fetched", "empty", "error")),
                                 "fetch"),
        "rehydrate_records_per_s": rate(facts["rehydrate_records"], "rehydrate"),
        "error_share": errors / attempted if attempted else 0.0,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def client_layer(p: Pass, manifests: dict) -> dict[str, float]:
    """client and mockserver numbers from the program's --log TSVs and
    manifests and from the timed mock server, for one untraced pass."""
    durations, attempts, requests, errors = [], 0, 0, 0
    handle_s = 0.0
    elapsed = 0.0
    for stage in LOGGED_STAGES:
        if stage not in p.results:
            continue
        elapsed += manifests[stage]["elapsed_seconds"]
        handle_s += p.results[stage].get("server", {}).get("handle_busy_s", 0.0)
        last_status = None
        with open(f"{p.meta}/{stage}.log.tsv", encoding="utf-8") as fh:
            for line in fh:
                _, _, _, status, attempt, duration, _ = line.rstrip("\n").split("\t")
                if attempt == "1":
                    requests += 1
                    if last_status is not None and not last_status.startswith("2"):
                        errors += 1
                attempts += 1
                last_status = status
                durations.append(float(duration) * 1000)
        if last_status is not None and not last_status.startswith("2"):
            errors += 1
    server = {"requests": 0, "handle_busy_s": 0.0, "faults_served": 0, "bytes_sent": 0}
    for result in p.results.values():
        for key, value in result.get("server", {}).items():
            server[key] += value
    m = {
        "client.requests": requests,
        "client.attempts": attempts,
        "client.retries": attempts - requests,
        "client.retry_share": (attempts - requests) / attempts if attempts else 0.0,
        "client.errors": errors,
        "client.request_ms.p50": percentile(durations, 0.50),
        "client.request_ms.p99": percentile(durations, 0.99),
        "client.requests_per_s": attempts / elapsed if elapsed else 0.0,
        "client.overhead_ms_per_request":
            (sum(durations) - handle_s * 1000) / attempts if attempts else 0.0,
        "mockserver.max_concurrency": p.max_concurrency,
    }
    m.update({f"mockserver.{k}": v for k, v in server.items()})
    return m


def traced_layers(p: Pass, manifests: dict) -> dict[str, float]:
    """Per-layer numbers from the trace files of one traced pass."""
    aggregates: dict[str, list] = {}
    startups = []
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = p.wall(stage) if stage in p.results else 0.0
        m[f"cli.{stage}.self_s"] = 0.0
        if stage not in p.results:
            continue
        with open(f"{p.meta}/{stage}.trace.json", encoding="utf-8") as fh:
            trace = json.load(fh)
        startups.append(trace["startup_s"])
        m[f"cli.{stage}.self_s"] = trace["main_s"] - trace["covered_s"]
        for name, (calls, total, items) in trace["aggregates"].items():
            agg = aggregates.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += items
    m["cli.startup_s"] = statistics.median(startups)

    def calls(name):
        return aggregates.get(name, [0, 0.0, 0])[0]

    def busy(name):
        return aggregates.get(name, [0, 0.0, 0])[1]

    def us_per_call(name):
        return busy(name) / calls(name) * 1e6 if calls(name) else 0.0

    for name in ["cdx.parse_cdx_line", "cdx.parse_timestamp", "surt.parse_url",
                 "surt.surt_text_for_url", "urlfilter.verdict",
                 "urlfilter.classify_likely_html", "urlfilter.is_valid_url"]:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
    for name in ["cdx.read_timemap", "cdx.write_timemap", "sampler.calibrate_k",
                 "sampler.select_urls", "client.fetch_first_record", "client.fetch_timemap",
                 "timemaps.rehydrate"]:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in ["sampler.bucket_by_first_year", "sampler.reduce_long_tail",
                 "sampler.extract_missing_roots", "sampler.reintegrate_popular",
                 "timemaps.merge_pages"]:
        m[f"{name}.busy_s"] = busy(name)
    m["client.fetch_page_count.calls"] = calls("client.fetch_page_count")
    m["timemaps.rehydrate.records"] = aggregates.get("timemaps.rehydrate", [0, 0, 0])[2]
    rehydrate = manifests.get("rehydrate", {}).get("counts")
    revisits = (rehydrate["revisits_resolved"] + rehydrate["revisits_unresolved"]
                if rehydrate else 0)
    m["timemaps.revisit_resolved_share"] = (rehydrate["revisits_resolved"] / revisits
                                            if revisits else 0.0)
    m["stats.busy_s"] = sum(busy(n) for n in aggregates if n.startswith("stats."))
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- the run -----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the committed workload (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "waysample")):
        print(f"no waysample sources at {SRC}", file=sys.stderr)
        return 2
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    # the spawner starts while this process is small; see spawner.py
    spawner = Spawner()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # imports waysample from SRC
    if args.workload not in WORKLOADS:
        spawner.close()
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = None
    launched: list[Pass] = []
    untraced, traced = [], []  # (pass, facts, manifests)
    problems: list[str] = []
    try:
        setup_times = []
        for i in range(SETUPS):
            if workload is not None:
                workload.close()
            inputs = os.path.join(run_dir, f"inputs{i}")
            os.makedirs(inputs)
            start = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, args.scale, inputs)
            setup_times.append(time.perf_counter() - start)

        reference = None
        measure_start = time.monotonic()
        longest = 0.0
        while not problems:
            n = len(launched)
            is_traced = bool(args.trace) and n % 2 == 1
            if workload.server:
                workload.server.reset(workload.faults)
            p = Pass(spawner, workload, os.path.join(run_dir, f"pass{n:02d}"), is_traced,
                     f"{args.workload}-{args.seed}-{os.getpid()}-{n}", deadline)
            launched.append(p)
            p_start, steal_start = time.monotonic(), steal_seconds()
            workload.run_pass(p, p.out)
            longest = max(longest, time.monotonic() - p_start)
            p.steal_s = steal_seconds() - steal_start
            p.max_concurrency = workload.server.max_concurrency if workload.server else 0
            try:
                manifests = p.manifests()
                found, facts = workload.check(p.out, manifests)
            except (OSError, KeyError, ValueError) as exc:
                found = [f"outputs unreadable: {exc!r}"]
            problems += [f"pass {n}: {msg}" for msg in found]
            if found:
                break
            snapshot = p.snapshot()
            reference = reference or snapshot
            if snapshot != reference:
                diff = sorted(k for k in set(reference) | set(snapshot)
                              if reference.get(k) != snapshot.get(k))
                problems.append(f"pass {n} outputs differ from pass 0: {diff[:5]}")
            shutil.rmtree(p.out)
            (traced if is_traced else untraced).append((p, facts, manifests))
            now = time.monotonic()
            if n >= 1 and (now - measure_start + longest > args.seconds
                           or now + 1.5 * longest > deadline):
                break
    except StageFailed as exc:
        problems.append(str(exc))
    finally:
        if workload is not None:
            workload.close()
        spawner.close()

    attempted = sum(len(p.results) for p in launched) or 1
    failed = sum(r["returncode"] != 0 for p in launched for r in p.results.values())
    if problems:
        for msg in problems:
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        print(f"stage logs and manifests kept in {run_dir}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    walls = [end_to_end(p) for p, _, _ in untraced]
    e2e = median_metrics(walls)
    e2e["setup_s"] = statistics.median(setup_times)
    for (p, _, _), m in zip(untraced, walls):
        peak = max(p.results, key=lambda s: p.results[s]["maxrss_kb"])
        print(f"untraced pass: wall {m['wall_s']:.3f} s, steal {p.steal_s:.2f} s, "
              f"peak RSS set by {peak}; " +
              ", ".join(f"{s} {p.wall(s):.3f} s (cpu {p.results[s]['cpu_s']:.3f} s) "
                        f"{p.results[s]['maxrss_kb'] / 1024:.0f} MB" for s in p.results))

    if args.trace:
        layers = median_metrics([{**stage_rates(p, f, m), **client_layer(p, m),
                                  **{f"cli.{s}.peak_rss_mb":
                                     p.results[s]["maxrss_kb"] / 1024 if s in p.results
                                     else 0.0 for s in STAGES}}
                                 for p, f, m in untraced])
        layers.update(median_metrics([traced_layers(p, m) for p, _, m in traced]))
        traced_wall = statistics.median(end_to_end(p)["wall_s"] for p, _, _ in traced)
        layers["trace_overhead_share"] = traced_wall / e2e["wall_s"] - 1
        keep = os.path.join(WORK, f"last-trace-{args.workload}")
        shutil.rmtree(keep, ignore_errors=True)
        shutil.copytree(traced[-1][0].meta, keep)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{len(untraced)} untraced and {len(traced)} traced passes in "
          f"{time.monotonic() - run_start:.1f} s")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = [("urls_per_s", "URL/s"), ("rows_per_s", "row/s"), ("records_per_s", "rec/s"),
               ("requests_per_s", "1/s"), ("_s", "s"), (".us_per_call", "us"),
               ("_ms_per_request", "ms"), (".p50", "ms"), (".p99", "ms"),
               ("_mb", "MB"), ("_share", "ratio"), ("bytes_sent", "B")]


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads, each in an untraced and a traced form.

Untraced runs drive the program only through its public surface: the
``kgforge`` CLI as child processes and ``kgforge serve`` over HTTP.
They report the end-to-end metrics.  Traced runs call the stage and
query functions in process with the tracer installed, and report the
per-layer metrics.

Every workload reports the same end-to-end names; each names its two
operation classes ``heavy`` and ``light``:

=========  ===============================  ==================================
workload   heavy                            light
=========  ===============================  ==================================
ingest     cold pass: harvest, transform,   incremental pass: the same four
           load, stats on an empty work     commands after 5 days of a new
           directory (200 records)          month arrive (25 records)
run        ``kgforge run --fresh`` on an    ``kgforge run`` again on the same
           empty work directory (100)       directory (nothing new to insert)
query-mix  ``analytic`` stream requests     ``lookup`` stream requests
           (800 records)
=========  ===============================  ==================================

The batch sizes are small so that a 30-second run holds several
repetitions and reports their median; each repetition still runs the
program's whole path.
"""

from __future__ import annotations

import http.client
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import FIRST_DAY, PER_DAY, Corpus, last_day, next_month
from harness import (
    DATASET_CLASS,
    MINT_BASE,
    BenchError,
    Server,
    Tally,
    fresh_dir,
    median,
    tail_percentile,
    run_cli,
    write_config,
)

INGEST_RECORDS = 200
RUN_RECORDS = 100
QUERY_RECORDS = 800
#: Days of the next month that arrive before the incremental pass.
INCREMENT_DAYS = 5
#: Server starts per query-mix run; ``setup_s`` counts their median.
SERVER_STARTS = 3
#: The operation class each query-mix stream reports as.
STREAM_CLASS = {"lookup": "light", "analytic": "heavy"}


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    tally: Tally

    def cli(self, config: Path, *args: str):
        result = run_cli(self.root, config.parent / "out", "-c", str(config), *args)
        self.tally.check(result.returncode == 0, f"{' '.join(args)} exited {result.returncode}: {result.stderr[-400:]}")
        return result


class Report(dict):
    """Metric name -> (value, unit), and the batch samples behind them."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self[name] = (value, unit)


def _op_metrics(report: Report, cls: str, seconds: list[float], per_s: float) -> None:
    report.add(f"{cls}_p50_ms", 1000 * median(seconds), "ms")
    report.add(f"{cls}_p90_ms", 1000 * tail_percentile(seconds, 0.9), "ms")
    report.add(f"{cls}_per_s", per_s, "1/s")


def _graph_iri(month: str) -> str:
    year, mm = month.split("-")
    return f"{MINT_BASE}graphs/{year}/{mm}"


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _int(text: str) -> int | None:
    try:
        return int(text.strip())
    except ValueError:
        return None


def _batch(ctx: Context, corpus: Corpus, count: int, rep) -> Report:
    """Repeat ``rep`` in a closed loop: once always, again while another
    repetition fits before the deadline at the pace of the last one.

    Each repetition first sets up a new work directory: it writes the
    corpus and starts the CLI once (reading and byte-compiling the
    package).  ``rep(work, records, months)`` returns the seconds of its
    heavy and light operation and the peak RSS of its processes.  Work
    directories are removed only when the run ends, so that no deletion
    overlaps a timed command."""
    setup, heavy, light, rss = [], [], [], []
    deadline = time.perf_counter() + ctx.seconds
    while not heavy or time.perf_counter() + setup[-1] + heavy[-1] + light[-1] <= deadline:
        started = time.perf_counter()
        work = fresh_dir(ctx.work / f"rep{len(heavy)}")
        months = corpus.write(work / "records", 0, count, FIRST_DAY)
        warm = run_cli(ctx.root, work / "out", "--help")
        ctx.tally.check(warm.returncode == 0, f"kgforge --help exited {warm.returncode}: {warm.stderr[-400:]}")
        setup.append(time.perf_counter() - started)
        heavy_s, light_s, peak = rep(work, work / "records", months)
        heavy.append(heavy_s)
        light.append(light_s)
        rss.append(peak)
    report = Report()
    report.samples = {"heavy": heavy, "light": light}
    report.add("setup_s", median(setup), "s")
    report.add("peak_rss_mb", max(rss), "MiB")
    _op_metrics(report, "heavy", heavy, count / median(heavy))
    _op_metrics(report, "light", light, count / median(light))
    return report


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _json_file(path: Path):
    try:
        return _json(path.read_text(encoding="utf-8"))
    except OSError:
        return None


def _manifest(work: Path) -> dict:
    return (_json_file(work / "store" / "manifest.json") or {}).get("graphs", {})


def _ingest_pass(ctx: Context, config: Path, records: int, months: list[str],
                 before: dict | None) -> tuple[float, float]:
    """harvest, transform, load, stats as four processes; checks every
    output and returns (seconds, peak RSS MB)."""
    check = ctx.tally.check
    runs = {cmd: ctx.cli(config, cmd) for cmd in ("harvest", "transform", "load", "stats")}
    work = config.parent
    check(_int(runs["harvest"].stdout) == records, f"harvest yielded {runs['harvest'].stdout.strip()!r}, expected {records}")
    skipped = re.search(r"\((\d+) skipped\)", runs["transform"].stderr)
    summary = _json_file(work / "staging" / "summary.json") or {"graphs": {}}
    staged = sum(g["source_records"] for g in summary["graphs"].values())
    check(bool(skipped) and skipped.group(1) == "0" and staged == records,
          f"transform skipped {skipped and skipped.group(1)} and staged {staged} of {records} records")
    stats = _json(runs["stats"].stdout) or {}
    datasets = stats.get("per_class", {}).get(DATASET_CLASS)
    check(datasets == records, f"stats counts {datasets} datasets, expected {records}")
    check(stats.get("graph_count") == len(months), f"stats counts {stats.get('graph_count')} graphs, expected {len(months)}")
    inserted = _int(runs["load"].stdout)
    after = _manifest(work)
    if before is None:
        check(inserted == stats.get("total_triples"), f"cold load inserted {inserted} of {stats.get('total_triples')} quads")
    else:
        new = _graph_iri(months[-1])
        changed = sorted(g for g in after if before.get(g) != after[g])
        check(changed == [new] and inserted == after[new]["quads"],
              f"incremental load changed graphs {changed} with {inserted} quads, expected only {new}")
    seconds = sum(r.seconds for r in runs.values())
    return seconds, max(r.maxrss_mb for r in runs.values())


def ingest(ctx: Context) -> Report:
    corpus = Corpus(ctx.root, ctx.seed, INGEST_RECORDS)
    new_start = next_month(last_day(INGEST_RECORDS))
    new_count = PER_DAY * INCREMENT_DAYS

    def rep(work: Path, records: Path, months: list[str]):
        config = write_config(work / "kgforge.json", records, work)
        cold, cold_peak = _ingest_pass(ctx, config, INGEST_RECORDS, months, None)
        before = _manifest(work)
        added = corpus.write(records, INGEST_RECORDS, new_count, new_start)
        incr, incr_peak = _ingest_pass(ctx, config, INGEST_RECORDS + new_count, months + added, before)
        return cold, incr, max(cold_peak, incr_peak)

    return _batch(ctx, corpus, INGEST_RECORDS, rep)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _check_run(ctx: Context, result, records: int, fresh: bool) -> None:
    summary = _json(result.stdout) or {"stages": {}}
    stages = summary["stages"]
    validate = stages.get("validate", {})
    ctx.tally.check(summary.get("ok") is True and validate.get("conforms") is True,
                    f"run ok={summary.get('ok')} conforms={validate.get('conforms')}")
    datasets = stages.get("stats", {}).get("per_class", {}).get(DATASET_CLASS)
    inserted = stages.get("load", {}).get("inserted")
    expected_insert = stages.get("load", {}).get("total") if fresh else 0
    ctx.tally.check(datasets == records and inserted == expected_insert,
                    f"run counted {datasets} datasets and inserted {inserted}, expected {records} and {expected_insert}")


def run(ctx: Context) -> Report:
    def rep(work: Path, records: Path, months: list[str]):
        config = write_config(work / "kgforge.json", records, work)
        first = ctx.cli(config, "run", "--fresh")
        _check_run(ctx, first, RUN_RECORDS, fresh=True)
        second = ctx.cli(config, "run")
        _check_run(ctx, second, RUN_RECORDS, fresh=False)
        return first.seconds, second.seconds, max(first.maxrss_mb, second.maxrss_mb)

    return _batch(ctx, Corpus(ctx.root, ctx.seed, RUN_RECORDS), RUN_RECORDS, rep)


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------


def _build_store(ctx: Context, corpus: Corpus, work: Path) -> Path:
    records = work / "records"
    corpus.write(records, 0, QUERY_RECORDS, FIRST_DAY)
    config = write_config(work / "kgforge.json", records, work)
    for cmd in ("harvest", "transform", "load"):
        ctx.cli(config, cmd)
    return config


def _serve(ctx: Context, config: Path) -> Server:
    """Start the server and wait for its first ``/stats`` answer."""
    server = Server(ctx.root, config)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("GET", "/stats")
        response = conn.getresponse()
        stats = _json(response.read().decode("utf-8", "replace")) or {}
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    ctx.tally.check(response.status == 200 and stats.get("per_class", {}).get(DATASET_CLASS) == QUERY_RECORDS,
                    f"first /stats answered {response.status} with {stats.get('per_class', {}).get(DATASET_CLASS)} datasets")
    return server


def _query_setup(ctx: Context, servers: list[Server]) -> tuple[float, Path]:
    """Build the store once, then start the server ``SERVER_STARTS``
    times; set-up time is the build plus the median start."""
    started = time.perf_counter()
    config = _build_store(ctx, Corpus(ctx.root, ctx.seed, QUERY_RECORDS), ctx.work / "store")
    build = time.perf_counter() - started
    starts = []
    for _ in range(SERVER_STARTS):
        if servers:
            servers.pop().stop()
        started = time.perf_counter()
        servers.append(_serve(ctx, config))
        starts.append(time.perf_counter() - started)
    return build + median(starts), config


def _expected(store, mix) -> dict:
    from querymix import respond

    return {request: respond(store, request)[0] for cycle in mix.values() for request in set(cycle)}


def query_mix(ctx: Context) -> Report:
    from kgforge.store import Store
    from querymix import build_mix, drive

    servers: list[Server] = []
    try:
        setup_s, config = _query_setup(ctx, servers)
        store = Store.load(config.parent / "store")
        mix = build_mix(store, ctx.seed)
        expected = _expected(store, mix)
        streams = drive(servers[0].port, mix, expected, seconds=ctx.seconds)
    finally:
        rss = [s.stop() for s in servers]
    report = Report()
    report.add("setup_s", setup_s, "s")
    report.add("peak_rss_mb", max(rss), "MiB")
    for stream in streams:
        cls = STREAM_CLASS[stream.requests[0].stream]
        for request, _, ok in stream.samples:
            ctx.tally.check(ok, f"{request.kind} {request.url[:120]} answered wrongly")
        if stream.error:
            ctx.tally.check(False, f"{stream.requests[0].stream} stream stopped: {stream.error}")
        latencies = [seconds for _, seconds, _ in stream.samples]
        if not latencies:
            raise BenchError(f"the {stream.requests[0].stream} stream completed no request")
        _op_metrics(report, cls, latencies, len(latencies) / (stream.finished - stream.started))
    return report


# ---------------------------------------------------------------------------
# Traced runs: the same work in process, first untraced, then traced
# ---------------------------------------------------------------------------


def _datasets(stats) -> int | None:
    return {cls.value: n for cls, n in stats.per_class.items()}.get(DATASET_CLASS)


def _load_config(path: Path):
    from kgforge.pipeline import load_config

    return load_config(path)


def _traced(ctx: Context, scenario):
    """Alternate untraced and traced runs of ``scenario(tracer)``, which
    returns its seconds: one pair always, more while they fit in the
    interval.  Returns the tracer of the last traced run and the
    overhead entries (median traced less median untraced seconds)."""
    from tracing import Tracer

    plain, traced = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not plain or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(scenario(None))
        tracer = Tracer()
        with tracer.installed():
            traced.append(scenario(tracer))
    untraced_s, traced_s = median(plain), median(traced)
    overhead = Report()
    overhead.add("trace.overhead_s", traced_s - untraced_s, "s")
    overhead.add("trace.overhead_ratio", (traced_s - untraced_s) / untraced_s, "ratio")
    return tracer, overhead


def ingest_traced(ctx: Context) -> Report:
    from kgforge import pipeline
    from tracing import endpoint_metrics, layer_metrics

    corpus = Corpus(ctx.root, ctx.seed, INGEST_RECORDS)
    new_start = next_month(last_day(INGEST_RECORDS))
    new_count = PER_DAY * INCREMENT_DAYS

    def scenario(tracer) -> float:
        work = fresh_dir(ctx.work / "rep")
        records = work / "records"
        months = corpus.write(records, 0, INGEST_RECORDS, FIRST_DAY)
        config = _load_config(write_config(work / "kgforge.json", records, work))
        elapsed = 0.0
        for count, graphs in ((INGEST_RECORDS, len(months)), (INGEST_RECORDS + new_count, len(months) + 1)):
            if count > INGEST_RECORDS:
                corpus.write(records, INGEST_RECORDS, new_count, new_start)
            started = time.perf_counter()
            harvested = pipeline.stage_harvest(config)
            pipeline.stage_transform(config)
            pipeline.stage_load(config)
            stats = pipeline.stage_stats(config)
            elapsed += time.perf_counter() - started
            ctx.tally.check(harvested.records == count and _datasets(stats) == count
                            and stats.graph_count == graphs, "in-process ingest counts differ")
        return elapsed

    tracer, overhead = _traced(ctx, scenario)
    report = Report(layer_metrics(tracer))
    report.update(endpoint_metrics(None))
    report.update(overhead)
    return report


def run_traced(ctx: Context) -> Report:
    from kgforge import pipeline
    from tracing import STAGES, endpoint_metrics, layer_metrics

    corpus = Corpus(ctx.root, ctx.seed, RUN_RECORDS)
    stage_seconds = {}

    def scenario(tracer) -> float:
        work = fresh_dir(ctx.work / "rep")
        records = work / "records"
        corpus.write(records, 0, RUN_RECORDS, FIRST_DAY)
        config = _load_config(write_config(work / "kgforge.json", records, work))
        started = time.perf_counter()
        summaries = [pipeline.run_pipeline(config, fresh=True), pipeline.run_pipeline(config)]
        elapsed = time.perf_counter() - started
        stage_seconds.clear()
        for summary in summaries:
            ctx.tally.check(summary["ok"] and summary["stages"]["validate"]["conforms"], "in-process run does not conform")
            for stage in STAGES:
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + summary["stages"][stage]["seconds"]
        return elapsed

    tracer, overhead = _traced(ctx, scenario)
    report = Report(layer_metrics(tracer, stage_seconds=stage_seconds))
    report.update(endpoint_metrics(None))
    report.update(overhead)
    return report


def query_mix_traced(ctx: Context) -> Report:
    """One round of each stream in process (loading the store as the
    server does), untraced and traced; then the same rounds over HTTP
    one request at a time.  ``http_ms`` is the HTTP latency less the
    untraced in-process latency."""
    from kgforge.store import Store
    from querymix import build_mix, drive, respond
    from tracing import CLASSES, endpoint_metrics, layer_metrics

    config = _build_store(ctx, Corpus(ctx.root, ctx.seed, QUERY_RECORDS), ctx.work / "store")
    store_dir = config.parent / "store"
    loaded = Store.load(store_dir)
    mix = build_mix(loaded, ctx.seed)
    expected = _expected(loaded, mix)
    inproc: dict[str, float] = {}
    rows: dict[str, int] = {}

    def scenario(tracer) -> float:
        # The report keeps the last untraced and the last traced round.
        (inproc if tracer is None else rows).update(dict.fromkeys(CLASSES, 0))
        started = time.perf_counter()
        store = Store.load(store_dir)
        for cls in CLASSES:
            for request in mix[cls]:
                sent = time.perf_counter()
                if tracer is None:
                    body, n = respond(store, request)
                    inproc[cls] += time.perf_counter() - sent
                else:
                    with tracer.span("endpoint.request", cls):
                        body, n = respond(store, request, tracer)
                    rows[cls] += n
                ctx.tally.check(body == expected[request], f"in-process {request.kind} answered differently")
        return time.perf_counter() - started

    tracer, overhead = _traced(ctx, scenario)
    server = Server(ctx.root, config)
    try:
        http = {cls: drive(server.port, mix, expected, rounds=1, streams=(cls,))[0] for cls in CLASSES}
    finally:
        server.stop()
    per_class = {}
    for cls in CLASSES:
        for request, _, ok in http[cls].samples:
            ctx.tally.check(ok, f"{request.kind} answered wrongly over HTTP")
        ctx.tally.check(http[cls].error is None and len(http[cls].samples) == len(mix[cls]),
                        f"{cls} round over HTTP: {http[cls].error}")
        requests = len(mix[cls])
        children: dict[str, float] = {}
        for span in tracer.spans:
            parent = tracer.spans[span.parent] if span.parent is not None else None
            if parent is not None and parent.name == "endpoint.request" and parent.label == cls:
                children[span.name] = children.get(span.name, 0.0) + span.seconds
        per_class[cls] = {
            "parse_ms": 1000 * children.get("endpoint.parse", 0.0) / requests,
            "exec_ms": 1000 * children.get("endpoint.exec", 0.0) / requests,
            "encode_ms": 1000 * children.get("endpoint.encode", 0.0) / requests,
            "rows": rows[cls] / requests,
            "http_ms": 1000 * (sum(s for _, s, _ in http[cls].samples) - inproc[cls]) / requests,
        }
    report = Report(layer_metrics(tracer))
    report.update(endpoint_metrics(per_class))
    report.update(overhead)
    return report

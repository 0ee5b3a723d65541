"""Harvester tests: cache behavior, checkpoint resume, paging, backoff.

HTTP tests run against a real ``http.server`` instance on a loopback
port; time-dependent behavior (rate limiting, retry backoff) runs on a
fake clock so nothing actually sleeps.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import threading
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import parse_qs, urlparse

import pytest

from kgforge.harvest import (
    CacheCorruption,
    Clock,
    Harvester,
    HarvestError,
    RawCache,
    SourceConfig,
    parse_envelope,
)
from kgforge.jsonld import JsonLdContext, to_rdf
from kgforge.rdf import XSD, Iri


def envelope(i: int, *, submitted: str = "2014-06-03") -> dict:
    return {
        "id": f"10.14272/KEY{i:04d}/Raman",
        "submitted": submitted,
        "metadata": {"@type": "Dataset", "name": f"Record {i}"},
    }


#: The same envelope with a UTF-8 byte order mark, and in UTF-16: JSON
#: decoders that sniff the encoding accept both, RFC 8259 neither.
BOM_ENVELOPE = b"\xef\xbb\xbf" + json.dumps(envelope(1)).encode()
UTF16_ENVELOPE = json.dumps(envelope(1)).encode("utf-16")


def write_journal(path, ids) -> None:
    path.write_text("".join(json.dumps(i) + "\n" for i in ids))


def read_journal(path) -> list[str]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_corpus(directory, envelopes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, doc in enumerate(envelopes):
        (directory / f"rec_{i:03d}.json").write_text(json.dumps(doc))


def directory_harvester(tmp_path, envelopes, **kwargs) -> Harvester:
    source = tmp_path / "source"
    if not source.exists():
        write_corpus(source, envelopes)
    config_kwargs = {
        k: kwargs.pop(k) for k in ("since", "max_retries") if k in kwargs
    }
    config = SourceConfig(base_url=str(source), mode="directory", **config_kwargs)
    cache = RawCache(tmp_path / "cache")
    return Harvester(
        config, cache, checkpoint_path=tmp_path / "harvest.checkpoint.json", **kwargs
    )


class FakeClock(Clock):
    """Monotonic time that only moves when someone sleeps."""

    def __init__(self):
        self.t = 0.0
        self.sleeps: list[float] = []

    def now(self):
        return datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=self.t)

    def monotonic(self):
        return self.t

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.t += seconds


class TestSourceConfig:
    def test_defaults(self):
        cfg = SourceConfig(base_url="https://example.org/api")
        assert cfg.mode == "directory"
        assert cfg.page_size == 100
        assert cfg.since is None
        assert cfg.rate_limit == 5.0
        assert cfg.max_retries == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_url": ""},
            {"base_url": "x", "mode": "ftp"},
            {"base_url": "x", "page_size": 0},
            {"base_url": "x", "rate_limit": 0.0},
            {"base_url": "x", "rate_limit": -1.0},
            {"base_url": "x", "max_retries": -1},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SourceConfig(**kwargs)


class TestParseEnvelope:
    def test_good_envelope(self):
        raw = json.dumps(envelope(7)).encode()
        source_id, submitted, metadata = parse_envelope(raw)
        assert source_id == "10.14272/KEY0007/Raman"
        assert submitted == date(2014, 6, 3)
        assert metadata == {"@type": "Dataset", "name": "Record 7"}

    @pytest.mark.parametrize(
        "raw",
        [
            b"not json at all",
            b"[1, 2]",
            b'{"submitted": "2014-06-03", "metadata": {}}',
            b'{"id": "", "submitted": "2014-06-03", "metadata": {}}',
            b'{"id": "x", "metadata": {}}',
            b'{"id": "x", "submitted": "June 3rd", "metadata": {}}',
            b'{"id": "x", "submitted": "2014-06-03"}',
            # RFC 8259: UTF-8 only, and no byte order mark.
            pytest.param(BOM_ENVELOPE, id="bom"),
            pytest.param(UTF16_ENVELOPE, id="utf-16"),
        ],
    )
    def test_malformed_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_envelope(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (BOM_ENVELOPE, "envelope is not JSON"),
            (UTF16_ENVELOPE, "envelope is not UTF-8"),
        ],
        ids=["bom", "utf-16"],
    )
    def test_encoding_errors_are_named(self, raw, message):
        with pytest.raises(ValueError, match=message):
            parse_envelope(raw)

    @pytest.mark.parametrize(
        "text",
        ["CC \\ud800 BY", "\\uDFFF", "\\udc00\\ud800", "\\ud83d", "\\ud83dx\\ude00"],
    )
    def test_unpaired_surrogate_escape_rejected(self, text):
        raw = json.dumps(envelope(7)).replace('"Record 7"', f'"{text}"').encode()
        with pytest.raises(ValueError, match="unpaired surrogate"):
            parse_envelope(raw)
        key = json.dumps(envelope(7)).replace('"name"', f'"{text}"').encode()
        with pytest.raises(ValueError, match="unpaired surrogate"):
            parse_envelope(key)

    def test_deep_nesting_rejected(self):
        raw = json.dumps(envelope(7)).replace('"Record 7"', "[" * 10**5 + "]" * 10**5).encode()
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_envelope(raw)

    def test_paired_surrogate_escape_decodes(self):
        raw = json.dumps(envelope(7)).replace('"Record 7"', '"CC \\ud83d\\ude00 \\\\ud800"').encode()
        assert parse_envelope(raw)[2]["name"] == "CC \U0001F600 \\ud800"


class TestRawCache:
    def put_one(self, cache, i=1):
        raw = json.dumps(envelope(i)).encode()
        fetched = datetime(2024, 1, 1, 12, 0, tzinfo=timezone.utc)
        return cache.put(f"10.14272/KEY{i:04d}/Raman", date(2014, 6, 3), raw, fetched)

    def test_put_get_round_trip(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        entry = self.put_one(cache)
        got = cache.get("10.14272/KEY0001/Raman")
        assert got == entry
        assert got.submission_date == date(2014, 6, 3)
        assert got.fetched_at == datetime(2024, 1, 1, 12, 0, tzinfo=timezone.utc)

    def test_layout_is_content_addressed(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        entry = self.put_one(cache)
        digest = entry.content_digest
        assert entry.path == tmp_path / "cache" / digest[:2] / f"{digest}.json"
        assert entry.path.exists()
        assert (tmp_path / "cache" / "index.json").exists()

    def test_read_envelope_verifies_digest(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        entry = self.put_one(cache)
        assert cache.read_envelope(entry) == json.dumps(envelope(1)).encode()
        entry.path.write_bytes(b'{"id": "tampered"}')
        with pytest.raises(CacheCorruption, match="does not match its digest"):
            cache.read_envelope(entry)

    def test_survives_reopening(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        entry = self.put_one(cache)
        reopened = RawCache(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(entry.source_id) == entry

    def test_entries_sorted_by_source_id(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        for i in (3, 1, 2):
            self.put_one(cache, i)
        ids = [e.source_id for e in cache.entries()]
        assert ids == sorted(ids)
        assert len(ids) == 3

    def test_changed_payload_updates_digest(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        first = self.put_one(cache)
        changed = dict(envelope(1))
        changed["metadata"] = {"@type": "Dataset", "name": "Renamed"}
        second = cache.put(
            first.source_id,
            first.submission_date,
            json.dumps(changed).encode(),
            first.fetched_at,
        )
        assert second.content_digest != first.content_digest
        assert cache.get(first.source_id) == second

    def test_load_record_rebuilds_raw_record(self, tmp_path):
        cache = RawCache(tmp_path / "cache")
        doc = envelope(4)
        doc["metadata"]["molecularWeight"] = 100.19
        fetched = datetime(2024, 1, 1, tzinfo=timezone.utc)
        entry = cache.put("10.14272/KEY0004/Raman", date(2014, 6, 3), json.dumps(doc).encode(), fetched)
        record = cache.load_record(entry)
        assert record.source_id == "10.14272/KEY0004/Raman"
        assert record.submission_date == date(2014, 6, 3)
        assert record.payload["molecularWeight"] == Decimal("100.19")
        assert record.fetched_at == fetched


class TestDirectoryHarvest:
    def test_yields_all_in_filename_order(self, tmp_path):
        h = directory_harvester(tmp_path, [envelope(i) for i in range(10)])
        ids = [r.source_id for r in h.records()]
        assert ids == [f"10.14272/KEY{i:04d}/Raman" for i in range(10)]
        assert h.stats.yielded == 10
        assert h.stats.cache_misses == 10
        assert h.stats.cache_hits == 0

    def test_second_run_hits_cache_and_yields_again(self, tmp_path):
        envelopes = [envelope(i) for i in range(10)]
        clock = FakeClock()
        first = directory_harvester(tmp_path, envelopes, clock=clock)
        first_records = list(first.records())
        clock.t += 3600.0
        second = directory_harvester(tmp_path, envelopes, clock=clock)
        second_records = list(second.records())
        assert second.stats.cache_hits == 10
        assert second.stats.cache_misses == 0
        assert second_records == first_records  # fetched_at comes from the cache

    def test_changed_record_is_a_cache_miss(self, tmp_path):
        envelopes = [envelope(i) for i in range(3)]
        h1 = directory_harvester(tmp_path, envelopes)
        list(h1.records())
        changed = envelope(1)
        changed["metadata"]["name"] = "Renamed"
        (tmp_path / "source" / "rec_001.json").write_text(json.dumps(changed))
        h2 = directory_harvester(tmp_path, envelopes)
        records = list(h2.records())
        assert h2.stats.cache_hits == 2
        assert h2.stats.cache_misses == 1
        renamed = [r for r in records if r.source_id == "10.14272/KEY0001/Raman"]
        assert renamed[0].payload["name"] == "Renamed"

    def test_since_filters_by_submission_date(self, tmp_path):
        envelopes = [
            envelope(0, submitted="2014-05-17"),
            envelope(1, submitted="2014-06-03"),
            envelope(2, submitted="2014-07-01"),
        ]
        h = directory_harvester(tmp_path, envelopes, since=date(2014, 6, 1))
        ids = [r.source_id for r in h.records()]
        assert ids == ["10.14272/KEY0001/Raman", "10.14272/KEY0002/Raman"]
        assert h.stats.filtered_out == 1
        # Filtered records still land in the cache; they are archive, not noise.
        assert "10.14272/KEY0000/Raman" in h.cache

    def test_malformed_record_skipped_and_logged(self, tmp_path, caplog):
        source = tmp_path / "source"
        write_corpus(source, [envelope(0), envelope(1), envelope(2)])
        (source / "rec_001.json").write_text("{broken json")
        h = directory_harvester(tmp_path, [])
        with caplog.at_level("WARNING", logger="kgforge.harvest"):
            ids = [r.source_id for r in h.records()]
        assert ids == ["10.14272/KEY0000/Raman", "10.14272/KEY0002/Raman"]
        assert h.stats.skipped_malformed == 1
        assert "malformed" in caplog.text

    @pytest.mark.parametrize("raw", [BOM_ENVELOPE, UTF16_ENVELOPE], ids=["bom", "utf-16"])
    def test_non_utf8_envelope_is_a_malformed_skip_on_every_run(self, tmp_path, raw):
        source = tmp_path / "source"
        write_corpus(source, [envelope(0), envelope(1), envelope(2)])
        (source / "rec_001.json").write_bytes(raw)
        for _ in range(2):
            h = directory_harvester(tmp_path, [])
            ids = [r.source_id for r in h.records()]
            assert ids == ["10.14272/KEY0000/Raman", "10.14272/KEY0002/Raman"]
            assert h.stats.skipped_malformed == 1
        assert "10.14272/KEY0001/Raman" not in h.cache

    def test_missing_directory_aborts(self, tmp_path):
        config = SourceConfig(base_url=str(tmp_path / "nowhere"), mode="directory")
        h = Harvester(config, RawCache(tmp_path / "cache"))
        with pytest.raises(HarvestError, match="does not exist"):
            list(h.records())


class TestOneDecode:
    """Each envelope is decoded once where it is read: once per record by
    a harvest, once per record by ``load_record``."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        loads = json.loads

        def counting(*args, **kwargs):
            calls.append(args[0])
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return calls

    def test_directory_harvest_decodes_each_envelope_once(self, tmp_path, decodes):
        n = 12
        h = directory_harvester(tmp_path, [envelope(i) for i in range(n)])
        assert len(list(h.records())) == n
        assert len(decodes) == n

    def test_load_record_decodes_once(self, tmp_path, decodes):
        cache = RawCache(tmp_path / "cache")
        fetched = datetime(2024, 1, 1, tzinfo=timezone.utc)
        raw = json.dumps(envelope(3)).encode()
        entry = cache.put("10.14272/KEY0003/Raman", date(2014, 6, 3), raw, fetched)
        decodes.clear()
        assert cache.load_record(entry).payload == envelope(3)["metadata"]
        assert len(decodes) == 1


class TestCheckpoint:
    def test_interrupt_and_resume_splices_exactly(self, tmp_path):
        envelopes = [envelope(i) for i in range(50)]
        first = directory_harvester(tmp_path, envelopes)
        gen = first.records()
        consumed = [r.source_id for r in itertools.islice(gen, 10)]
        gen.close()
        assert (tmp_path / "harvest.checkpoint.json").exists()

        second = directory_harvester(tmp_path, envelopes)
        resumed = [r.source_id for r in second.records()]
        assert len(resumed) == 40
        assert consumed + resumed == [f"10.14272/KEY{i:04d}/Raman" for i in range(50)]
        assert second.stats.resumed_past == 10

    @pytest.mark.parametrize("stop_after", [0, 1, 5, 49])
    def test_resume_completes_the_rest(self, tmp_path, stop_after):
        envelopes = [envelope(i) for i in range(50)]
        first = directory_harvester(tmp_path, envelopes)
        gen = first.records()
        consumed = [r.source_id for r in itertools.islice(gen, stop_after)]
        gen.close()
        second = directory_harvester(tmp_path, envelopes)
        resumed = [r.source_id for r in second.records()]
        assert consumed + resumed == [f"10.14272/KEY{i:04d}/Raman" for i in range(50)]

    def test_checkpoint_written_before_each_yield(self, tmp_path):
        envelopes = [envelope(i) for i in range(5)]
        h = directory_harvester(tmp_path, envelopes)
        gen = h.records()
        seen = []
        for record in gen:
            seen.append(record.source_id)
            assert read_journal(tmp_path / "harvest.checkpoint.json") == seen
        gen.close()

    def test_completed_run_clears_checkpoint(self, tmp_path):
        h = directory_harvester(tmp_path, [envelope(i) for i in range(5)])
        list(h.records())
        assert not (tmp_path / "harvest.checkpoint.json").exists()

    def test_completed_checkpoint_resumes_to_nothing(self, tmp_path):
        envelopes = [envelope(i) for i in range(5)]
        all_ids = [f"10.14272/KEY{i:04d}/Raman" for i in range(5)]
        write_journal(tmp_path / "harvest.checkpoint.json", all_ids)
        h = directory_harvester(tmp_path, envelopes)
        assert list(h.records()) == []
        assert h.stats.resumed_past == 5

    def test_corrupt_checkpoint_restarts_with_warning(self, tmp_path, caplog):
        envelopes = [envelope(i) for i in range(5)]
        (tmp_path / "harvest.checkpoint.json").write_text("{oops")
        h = directory_harvester(tmp_path, envelopes)
        with caplog.at_level("WARNING", logger="kgforge.harvest"):
            ids = [r.source_id for r in h.records()]
        assert len(ids) == 5
        assert "corrupt checkpoint" in caplog.text

    @pytest.mark.parametrize(
        "body",
        [
            '{"wrong": []}',
            '{"yielded": 3}',
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_wrong_shape_checkpoint_also_restarts(self, tmp_path, body, caplog):
        # A complete journal line that is JSON but not a string.
        envelopes = [envelope(i) for i in range(3)]
        (tmp_path / "harvest.checkpoint.json").write_text(
            json.dumps("10.14272/KEY0000/Raman") + "\n" + body + "\n"
        )
        h = directory_harvester(tmp_path, envelopes)
        with caplog.at_level("WARNING", logger="kgforge.harvest"):
            assert len(list(h.records())) == 3
        assert "corrupt checkpoint" in caplog.text

    def test_torn_last_line_is_ignored_on_resume(self, tmp_path, caplog):
        envelopes = [envelope(i) for i in range(5)]
        ids = [f"10.14272/KEY{i:04d}/Raman" for i in range(5)]
        path = tmp_path / "harvest.checkpoint.json"
        # Two appends finished; the third stopped before its newline, so
        # its record was never yielded.
        write_journal(path, ids[:2])
        with path.open("a") as f:
            f.write(json.dumps(ids[2])[:-3])
        h = directory_harvester(tmp_path, envelopes)
        gen = h.records()
        with caplog.at_level("WARNING", logger="kgforge.harvest"):
            assert next(gen).source_id == ids[2]
        assert "corrupt checkpoint" not in caplog.text
        # The torn fragment is cut off before the journal grows again.
        assert read_journal(path) == ids[:3]
        assert [r.source_id for r in gen] == ids[3:]
        assert h.stats.resumed_past == 2

    def test_old_whole_file_checkpoint_restarts_with_warning(self, tmp_path, caplog):
        envelopes = [envelope(i) for i in range(3)]
        (tmp_path / "harvest.checkpoint.json").write_text(
            json.dumps({"yielded": ["10.14272/KEY0000/Raman"]}, indent=2) + "\n"
        )
        h = directory_harvester(tmp_path, envelopes)
        with caplog.at_level("WARNING", logger="kgforge.harvest"):
            assert len(list(h.records())) == 3
        assert "corrupt checkpoint" in caplog.text


class TestLinearBookkeeping:
    """Harvest writes grow linearly with the records it adds, counted in
    writes and bytes rather than timed."""

    def test_index_written_once_per_page_and_at_the_end(self, tmp_path, monkeypatch):
        n, page_size = 250, 100
        write_corpus(tmp_path / "source", [envelope(i) for i in range(n)])
        config = SourceConfig(
            base_url=str(tmp_path / "source"), mode="directory", page_size=page_size
        )
        # Every persisted file is renamed into place once per write.
        writes = []
        original = os.replace

        def counting_replace(src, dst):
            if Path(dst).name == "index.json":
                writes.append(dst)
            return original(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        h = Harvester(config, RawCache(tmp_path / "cache"))
        assert len(list(h.records())) == n
        assert 1 <= len(writes) <= -(-n // page_size) + 1
        assert len(RawCache(tmp_path / "cache")) == n

    def test_checkpoint_bytes_grow_linearly(self, tmp_path):
        envelopes = [envelope(i) for i in range(40)]
        h = directory_harvester(tmp_path, envelopes)
        path = tmp_path / "harvest.checkpoint.json"
        sizes = [path.stat().st_size for _ in h.records()]
        line = len(json.dumps("10.14272/KEY0000/Raman")) + 1
        assert sizes == [line * k for k in range(1, 41)]

    def test_closing_early_still_writes_the_index(self, tmp_path):
        h = directory_harvester(tmp_path, [envelope(i) for i in range(30)])
        gen = h.records()
        consumed = list(itertools.islice(gen, 7))
        gen.close()
        index = RawCache(tmp_path / "cache")
        assert all(r.source_id in index for r in consumed)


# ---------------------------------------------------------------------------
# HTTP mode
# ---------------------------------------------------------------------------


class _SourceHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        state = self.server.state
        if state.clock is not None:
            state.request_times.append(state.clock.t)
        state.requests += 1
        if state.failures > 0:
            state.failures -= 1
            self.send_error(500, "synthetic failure")
            return
        query = parse_qs(urlparse(self.path).query)
        per = int(query.get("per_page", ["10"])[0])
        if state.mode == "cursor" and "cursor" in query:
            lo = int(query["cursor"][0])
        else:
            lo = (int(query.get("page", ["1"])[0]) - 1) * per
        docs = state.envelopes[lo : lo + per]
        if state.mode == "bare-list":
            body = docs
        elif state.mode == "cursor":
            nxt = lo + per
            link = None
            if nxt < len(state.envelopes):
                link = f"{state.base_url}?cursor={nxt}&per_page={per}"
            body = {"records": docs, "next": link}
        elif state.mode == "broken":
            body = {"weird": True}
        else:
            body = {"records": docs}
        data = state.encode(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_source():
    servers = []

    def start(envelopes, *, failures=0, mode="paged", clock=None, encode=json.dumps):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _SourceHandler)
        host, port = server.server_address
        base_url = f"http://{host}:{port}/records"
        server.state = SimpleNamespace(
            envelopes=envelopes,
            failures=failures,
            mode=mode,
            clock=clock,
            requests=0,
            request_times=[],
            base_url=base_url,
            encode=encode,
        )
        # A short poll, so that shutdown() at teardown returns at once.
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def http_harvester(tmp_path, server, **config_kwargs) -> Harvester:
    clock = server.state.clock or FakeClock()
    config = SourceConfig(
        base_url=server.state.base_url,
        mode="http",
        rate_limit=config_kwargs.pop("rate_limit", 1000.0),
        **config_kwargs,
    )
    return Harvester(
        config,
        RawCache(tmp_path / "cache"),
        checkpoint_path=tmp_path / "harvest.checkpoint.json",
        clock=clock,
        rng=random.Random(7),
    )


class TestHttpHarvest:
    def test_paged_termination_on_empty_page(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(5)])
        h = http_harvester(tmp_path, server, page_size=2)
        ids = [r.source_id for r in h.records()]
        assert ids == [f"10.14272/KEY{i:04d}/Raman" for i in range(5)]
        # Three full or partial pages, plus the empty page that stops the run.
        assert h.stats.pages_fetched == 4

    def test_page_size_one(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(3)])
        h = http_harvester(tmp_path, server, page_size=1)
        assert len(list(h.records())) == 3
        assert h.stats.pages_fetched == 4

    def test_next_links_are_followed(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(5)], mode="cursor")
        h = http_harvester(tmp_path, server, page_size=2)
        ids = [r.source_id for r in h.records()]
        assert ids == [f"10.14272/KEY{i:04d}/Raman" for i in range(5)]
        # A null next link ends the run without an extra empty fetch.
        assert h.stats.pages_fetched == 3

    def test_bare_list_pages(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(3)], mode="bare-list")
        h = http_harvester(tmp_path, server, page_size=2)
        assert len(list(h.records())) == 3

    def test_unexpected_page_shape_aborts(self, tmp_path, http_source):
        server = http_source([envelope(0)], mode="broken")
        h = http_harvester(tmp_path, server)
        with pytest.raises(HarvestError, match="unexpected page shape"):
            list(h.records())

    def test_second_run_is_all_cache_hits(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(6)])
        first = http_harvester(tmp_path, server, page_size=3)
        list(first.records())
        second = http_harvester(tmp_path, server, page_size=3)
        records = list(second.records())
        assert len(records) == 6
        assert second.stats.cache_hits == 6
        assert second.stats.cache_misses == 0

    def test_transient_failure_retried(self, tmp_path, http_source):
        server = http_source([envelope(i) for i in range(2)], failures=1)
        h = http_harvester(tmp_path, server, page_size=10)
        assert len(list(h.records())) == 2
        clock = h.clock
        # One backoff pause for the one failure, jittered within [0.25, 0.5).
        backoffs = [s for s in clock.sleeps if s >= 0.2]
        assert len(backoffs) == 1
        assert 0.25 <= backoffs[0] < 0.5

    def test_gives_up_after_max_retries(self, tmp_path, http_source):
        server = http_source([envelope(0)], failures=99)
        h = http_harvester(tmp_path, server, max_retries=3)
        with pytest.raises(HarvestError, match="after 4 attempts"):
            list(h.records())
        assert server.state.requests == 4

    def test_backoff_grows_and_caps(self, tmp_path, http_source):
        server = http_source([envelope(0)], failures=99)
        h = http_harvester(tmp_path, server, max_retries=7)
        with pytest.raises(HarvestError):
            list(h.records())
        sleeps = h.clock.sleeps
        assert len(sleeps) == 7
        # Attempt k backs off min(30, 0.5 * 2**k) seconds before jitter,
        # and jitter keeps each pause within [base/2, base).
        for k, pause in enumerate(sleeps):
            base = min(30.0, 0.5 * 2**k)
            assert base / 2 <= pause < base
        assert sleeps[-1] < 30.0

    def test_rate_limit_spaces_requests(self, tmp_path, http_source):
        clock = FakeClock()
        server = http_source(
            [envelope(i) for i in range(6)], clock=clock
        )
        h = http_harvester(tmp_path, server, page_size=1, rate_limit=4.0)
        assert len(list(h.records())) == 6
        times = server.state.request_times
        assert len(times) == 7
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 0.25 - 1e-9 for gap in gaps)

    def test_failure_leaves_resumable_checkpoint(self, tmp_path, http_source):
        # First page succeeds, second page hits a permanent failure.
        server = http_source([envelope(i) for i in range(4)])
        h = http_harvester(tmp_path, server, page_size=2, max_retries=0)
        gen = h.records()
        got = [next(gen).source_id, next(gen).source_id]
        server.state.failures = 99
        with pytest.raises(HarvestError):
            list(gen)
        assert (tmp_path / "harvest.checkpoint.json").exists()

        server.state.failures = 0
        fresh = http_harvester(tmp_path, server, page_size=2)
        resumed = [r.source_id for r in fresh.records()]
        assert got + resumed == [f"10.14272/KEY{i:04d}/Raman" for i in range(4)]


#: The XSD 1.1 lexical space of each numeric datatype.
XSD_LEXICAL = {
    XSD + "integer": r"[+-]?[0-9]+",
    XSD + "decimal": r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)",
    XSD + "double": r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([Ee][+-]?[0-9]+)?|[+-]?INF|NaN",
}


class TestNumbers:
    @pytest.mark.parametrize(
        "number",
        [
            "12",
            "70.5",
            "-0.0",
            "1.10",
            "0.1000000000000000055511151231257827",
            "1e2",
            "1.5e-10",
            "0.0000001",
            "1E21",
            "1e400",
        ],
    )
    def test_a_number_maps_to_one_valid_literal_from_either_source(self, tmp_path, http_source, number):
        doc = envelope(1)
        doc["metadata"] = {"@context": {"@vocab": "https://schema.org/"}, "@id": "https://x.example/d", "value": "N"}

        def encode(body) -> str:
            return json.dumps(body).replace('"N"', number)

        server = http_source([doc], encode=encode)
        source = tmp_path / "source"
        source.mkdir()
        (source / "rec.json").write_text(encode(doc))
        harvesters = [
            http_harvester(tmp_path / "http", server),
            Harvester(SourceConfig(base_url=str(source)), RawCache(tmp_path / "directory")),
        ]
        literals = set()
        for harvester in harvesters:
            (record,) = harvester.records()
            (triple,) = to_rdf(record, JsonLdContext())
            assert triple.predicate == Iri("https://schema.org/value")
            literals.add(triple.object)
        (literal,) = literals
        assert re.fullmatch(XSD_LEXICAL[literal.datatype.value], literal.lexical)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
class TestNonJsonConstants:
    """RFC 8259 has no NaN or infinities: a record that holds one is a
    malformed skip on every harvest, from either source."""

    @staticmethod
    def encode(body, constant) -> str:
        return json.dumps(body).replace('"N"', constant)

    @staticmethod
    def with_constant() -> dict:
        doc = envelope(1)
        doc["metadata"]["molecularWeight"] = "N"
        return doc

    def test_parse_envelope_rejects_it(self, constant):
        raw = self.encode(self.with_constant(), constant).encode()
        with pytest.raises(ValueError, match=f"envelope is not JSON: {constant} is not a JSON number"):
            parse_envelope(raw)

    def test_a_directory_harvest_skips_it_every_run(self, tmp_path, constant):
        source = tmp_path / "source"
        write_corpus(source, [envelope(0), envelope(1), envelope(2)])
        (source / "rec_001.json").write_text(self.encode(self.with_constant(), constant))
        for _ in range(2):
            h = directory_harvester(tmp_path, [])
            ids = [r.source_id for r in h.records()]
            assert ids == ["10.14272/KEY0000/Raman", "10.14272/KEY0002/Raman"]
            assert h.stats.skipped_malformed == 1

    def test_an_http_harvest_skips_it_every_run(self, tmp_path, http_source, constant):
        server = http_source(
            [envelope(0), self.with_constant(), envelope(2)],
            encode=lambda body: self.encode(body, constant),
        )
        for _ in range(2):
            h = http_harvester(tmp_path, server)
            ids = [r.source_id for r in h.records()]
            assert ids == ["10.14272/KEY0000/Raman", "10.14272/KEY0002/Raman"]
            assert h.stats.skipped_malformed == 1

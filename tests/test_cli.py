"""Command-line tests.

Most tests call ``main()`` in process and assert on exit codes and
captured streams; ``serve`` gets a subprocess test because it blocks.
"""

from __future__ import annotations

import http.client
import http.server
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from kgforge.cli import main
from kgforge.pipeline import ConfigError, load_config
from kgforge.rdf import Iri, Quad, Triple, parse_nquads, parse_ntriples, serialize_nquads
from kgforge.store import Store

FIXTURES = Path(__file__).parent.parent / "fixtures" / "records"
GOLDENS = Path(__file__).parent / "goldens"

BASE = "https://kg.example.org/chemotion/"


def write_project(root: Path) -> Path:
    """A config file in ``root`` pointing at the fixture corpus, serving
    on a port the system picks."""
    doc = {
        "source": {"base_url": str(FIXTURES), "mode": "directory"},
        "mint": {"base": BASE},
        "store_dir": "store",
        "cache_dir": "cache",
        "staging_dir": "staging",
        "endpoint": {"host": "127.0.0.1", "port": 0},
    }
    (root / "kgforge.json").write_text(json.dumps(doc, indent=2))
    return root


@pytest.fixture()
def project(tmp_path):
    """A working directory with a config file pointing at the fixture corpus."""
    return write_project(tmp_path)


def run_cli(project: Path, *argv: str) -> int:
    return main(["-c", str(project / "kgforge.json"), *argv])


class TestRun:
    def test_run_succeeds_and_prints_summary(self, project, capsys):
        assert run_cli(project, "run") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["stages"]["harvest"]["records"] == 50
        assert summary["stages"]["load"]["inserted"] > 0
        assert summary["stages"]["validate"]["violations"] == 0
        assert "stats" in summary["stages"]

    def test_second_run_inserts_nothing(self, project, capsys):
        assert run_cli(project, "run") == 0
        capsys.readouterr()
        assert run_cli(project, "run") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stages"]["load"]["inserted"] == 0

    def test_run_with_violations_exits_3(self, project, capsys):
        # Persist a store seeded with a known fault, then run against an
        # empty source directory so the bad quad survives untouched.
        fault = (GOLDENS / "faults" / "role_without_bearer.nt").read_text()
        store = Store()
        store.load_quads(
            [Quad(t, Iri(f"{BASE}graphs/2014/05")) for t in parse_ntriples(fault)]
        )
        store.persist(project / "store")
        empty = project / "empty-source"
        empty.mkdir()
        doc = json.loads((project / "kgforge.json").read_text())
        doc["source"]["base_url"] = str(empty)
        (project / "kgforge.json").write_text(json.dumps(doc))

        assert run_cli(project, "run") == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is False
        assert summary["failed_stage"] == "validate"
        assert "stats" not in summary["stages"]


#: A JSON array nested deeper than the decoder recurses.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _nested(depth: int) -> dict:
    """An object ``depth`` levels deep, which JSON reads but the
    JSON-LD converter cannot recurse into."""
    value = {"name": "leaf"}
    for _ in range(depth):
        value = {"creator": value}
    return value


class TestStageCommands:
    def test_harvest_prints_count(self, project, capsys):
        assert run_cli(project, "harvest") == 0
        assert capsys.readouterr().out == "50\n"

    def test_transform_prints_per_rule_lines(self, project, capsys):
        run_cli(project, "harvest")
        capsys.readouterr()
        assert run_cli(project, "transform") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "creator.rq\t450",
            "dataset.rq\t550",
            "study.rq\t350",
            "substance.rq\t260",
        ]

    def test_transform_skips_a_record_whose_type_is_a_number(self, project, capsys, caplog):
        source = project / "records"
        source.mkdir()
        for path in sorted(FIXTURES.glob("*.json")):
            (source / path.name).write_bytes(path.read_bytes())
        bad = json.loads((FIXTURES / "rec_00.json").read_text())
        bad["id"] = "10.14272/BADTYPE/Raman"
        bad["metadata"]["@type"] = 0
        (source / "bad_type.json").write_text(json.dumps(bad))
        doc = json.loads((project / "kgforge.json").read_text())
        doc["source"]["base_url"] = str(source)
        (project / "kgforge.json").write_text(json.dumps(doc))
        assert run_cli(project, "harvest") == 0
        with caplog.at_level("INFO"):
            assert run_cli(project, "transform") == 0
        assert "(1 skipped)" in caplog.text
        assert "BADTYPE" in caplog.text

    def test_non_utf8_envelope_is_skipped_on_every_harvest(self, project, capsys, caplog):
        source = project / "records"
        shutil.copytree(FIXTURES, source)
        bad = json.loads((FIXTURES / "rec_00.json").read_text())
        bad["id"] = "10.14272/BOM/Raman"
        (source / "bom.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(bad).encode())
        point_source_at(project, str(source))
        for hits in (0, 50):
            caplog.clear()
            with caplog.at_level("INFO"):
                assert run_cli(project, "harvest") == 0
            assert capsys.readouterr().out == "50\n"
            assert f"50 yielded, {hits} cache hits, 1 skipped" in caplog.text

    @pytest.mark.parametrize(
        "license, skipped_at",
        [
            ({"@value": "CC BY", "@language": "en US"}, "transform"),
            ({"@value": "CC BY", "@type": 5}, "transform"),
            ("CC \ud800 BY", "harvest"),
            (_nested(600), "transform"),
        ],
        ids=["language-tag", "value-type", "lone-surrogate", "deep-nesting"],
    )
    def test_bad_record_is_a_counted_skip_and_the_rest_loads(
        self, project, capsys, caplog, license, skipped_at
    ):
        source = project / "records"
        shutil.copytree(FIXTURES, source)
        bad = json.loads((FIXTURES / "rec_01.json").read_text())
        bad["metadata"]["license"] = license
        (source / "rec_01.json").write_text(json.dumps(bad))  # escapes the surrogate
        point_source_at(project, str(source))
        at_harvest = skipped_at == "harvest"
        with caplog.at_level("INFO"):
            assert run_cli(project, "harvest") == 0
            assert run_cli(project, "transform") == 0
            assert run_cli(project, "load") == 0
        assert f"{50 - at_harvest} yielded, 0 cache hits, {int(at_harvest)} skipped" in caplog.text
        assert f"in 6 graphs ({int(not at_harvest)} skipped)" in caplog.text
        store = Store.load(project / "store")
        assert len(store.graphs()) == 6
        dropped = Iri(f"{BASE}resources/2014/06/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/1H%20NMR")
        assert not list(store.match(dropped))

    def test_load_prints_inserted(self, project, capsys):
        run_cli(project, "harvest")
        run_cli(project, "transform")
        capsys.readouterr()
        assert run_cli(project, "load") == 0
        inserted = int(capsys.readouterr().out)
        assert inserted > 0
        assert run_cli(project, "load") == 0
        assert capsys.readouterr().out == "0\n"

    def test_load_without_staging_exits_2(self, project, capsys):
        assert run_cli(project, "load") == 2
        assert "run transform" in capsys.readouterr().err

    def test_validate_prints_report_line(self, project, capsys):
        for command in ("harvest", "transform", "load"):
            run_cli(project, command)
        capsys.readouterr()
        assert run_cli(project, "validate") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conforms"] is True
        assert doc["violations"] == 0
        assert Path(doc["report"]).exists()

    def test_validate_exits_3_on_violations(self, project, capsys):
        fault = (GOLDENS / "faults" / "datum_without_unit.nt").read_text()
        store = Store()
        store.load_quads(
            [Quad(t, Iri(f"{BASE}graphs/2014/05")) for t in parse_ntriples(fault)]
        )
        store.persist(project / "store")
        assert run_cli(project, "validate") == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["conforms"] is False
        assert doc["violations"] >= 1

    def test_stats_json_on_stdout_table_on_stderr(self, project, capsys):
        run_cli(project, "run")
        capsys.readouterr()
        assert run_cli(project, "stats") == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["graph_count"] == 6
        assert "total triples" in captured.err
        assert "instances per class" in captured.err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, project, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(project, "explode")
        assert info.value.code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["-c", str(tmp_path / "absent.json"), "stats"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_file(self, tmp_path, capsys):
        config = tmp_path / "kgforge.json"
        config.write_text("{not json")
        assert main(["-c", str(config), "stats"]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("strategy", "uuid"), ("uuid_namespace", "6ba7b811-9dad-11d1-80b4-00c04fd430c8")],
    )
    def test_removed_mint_key_exits_1(self, project, capsys, key, value):
        config = project / "kgforge.json"
        doc = json.loads(config.read_text())
        doc["mint"][key] = value
        config.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            load_config(config, env={})
        assert run_cli(project, "stats") == 1
        assert key in capsys.readouterr().err

    def test_lock_contention_exits_2(self, project, capsys):
        (project / "store.lock").write_text("12345\n")
        assert run_cli(project, "run") == 2
        assert "another run holds" in capsys.readouterr().err

    def test_stats_without_store_exits_2(self, project, capsys):
        assert run_cli(project, "stats") == 2


def point_source_at(project: Path, base_url: str, **source) -> None:
    config = project / "kgforge.json"
    doc = json.loads(config.read_text())
    doc["source"].update(base_url=base_url, **source)
    config.write_text(json.dumps(doc))


class _SourceHandler(http.server.BaseHTTPRequestHandler):
    """``/broken`` answers a page of an unknown shape, anything else 500."""

    #: Page bodies by path: one of an unknown shape, then ones no JSON
    #: decoder reads.
    BODIES = {
        "/broken": b'{"weird": true}',
        "/deep": b"[" * 10**5 + b"]" * 10**5,
        "/not-utf8": b'[{"id": "\xff"}]',
        "/long-integer": b"[%s]" % (b"9" * 5000),
    }

    def do_GET(self):
        body = self.BODIES.get(self.path.split("?")[0])
        if body is not None:
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(500, "synthetic failure")

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_source():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SourceHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


class TestHarvestFailures:
    @pytest.mark.parametrize(
        "path, source, message",
        [
            ("missing", {"mode": "directory"}, "source directory does not exist"),
            ("/failing", {"mode": "http", "max_retries": 0}, "after 1 attempts: HTTP Error 500"),
            ("/broken", {"mode": "http"}, "unexpected page shape"),
            ("/deep", {"mode": "http", "max_retries": 0}, "after 1 attempts: maximum recursion depth"),
            ("/not-utf8", {"mode": "http", "max_retries": 0}, "after 1 attempts: 'utf-8' codec"),
            ("/long-integer", {"mode": "http", "max_retries": 0}, "after 1 attempts: Exceeds the limit"),
        ],
        ids=["missing-directory", "gives-up", "page-shape", "deep-page", "not-utf8-page", "long-integer-page"],
    )
    def test_exits_2_without_a_traceback(self, project, http_source, capsys, path, source, message):
        base_url = str(project / path) if source["mode"] == "directory" else http_source + path
        point_source_at(project, base_url, **source)
        assert run_cli(project, "harvest") == 2
        err = capsys.readouterr().err
        assert err.startswith("kgforge: error: ")
        assert message in err
        assert "Traceback" not in err
        assert run_cli(project, "run") == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed_stage"] == "harvest"
        assert message in summary["error"]


def _append(relative: str, data: bytes):
    def damage(project: Path) -> None:
        with open(project / "store" / relative, "ab") as f:
            f.write(data)

    return damage


def _miscount(project: Path) -> None:
    path = project / "store" / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["graphs"][f"{BASE}graphs/2014/05"]["quads"] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")


def _deep_manifest(project: Path) -> None:
    """``graphs`` nested deeper than the JSON decoder recurses."""
    path = project / "store" / "manifest.json"
    path.write_text('{"graphs": ' + DEEP_JSON + "}", encoding="utf-8")


def _edit(project: Path) -> None:
    """Other canonical content in 2014-05.nq, with the quad count the
    manifest says: what a crash between two renames of a load leaves."""
    path = project / "store" / "graphs" / "2014-05.nq"
    triples = [q.triple for q in parse_nquads(path.read_text(encoding="utf-8"))]
    first = triples[0]
    triples[0] = Triple(Iri("http://example.org/edited"), first.predicate, first.object)
    path.write_text(serialize_nquads(set(triples), Iri(f"{BASE}graphs/2014/05")), encoding="utf-8")


def _move_out(name):
    """Point the 2014-05 manifest entry at a copy of its file outside the
    store, written as ``name(copy)``; the digest and the count still
    match."""

    def damage(project: Path) -> None:
        outside = project / "outside" / "2014-05.nq"
        outside.parent.mkdir()
        shutil.copyfile(project / "store" / "graphs" / "2014-05.nq", outside)
        path = project / "store" / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["graphs"][f"{BASE}graphs/2014/05"]["file"] = name(outside)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return damage


DAMAGE = {
    "not-utf8": (_append("graphs/2014-05.nq", b"\xff"), "2014-05.nq is not UTF-8"),
    "syntax": (_append("graphs/2014-05.nq", b"<a> <b> .\n"), "not an absolute IRI: 'a'"),
    "miscount": (_miscount, "manifest says"),
    "edited": (_edit, "2014-05.nq does not match its sha256"),
    "deep": (_deep_manifest, "unreadable manifest"),
    "file-absolute": (_move_out(str), "not '2014-05.nq'"),
    "file-parent": (_move_out(lambda _: "../../outside/2014-05.nq"), "not '2014-05.nq'"),
}


@pytest.fixture(scope="module")
def loaded_project(tmp_path_factory):
    """A project whose fixture store is built once; tests damage copies."""
    root = write_project(tmp_path_factory.mktemp("loaded"))
    for command in ("harvest", "transform", "load"):
        assert main(["-c", str(root / "kgforge.json"), command]) == 0
    return root


@pytest.fixture()
def damaged(loaded_project, tmp_path, request, capsys):
    """A copy of the loaded project with one ``DAMAGE`` or ``CACHE_DAMAGE``
    case applied, and the message it must produce."""
    project = tmp_path / "project"
    shutil.copytree(loaded_project, project)
    capsys.readouterr()
    damage, message = {**DAMAGE, **CACHE_DAMAGE}[request.param]
    damage(project)
    return project, message


class TestDamagedStore:
    @pytest.mark.parametrize(
        "damaged, command",
        [
            ("not-utf8", "stats"),
            ("syntax", "stats"),
            ("syntax", "load"),
            ("miscount", "stats"),
            ("edited", "stats"),
            ("deep", "stats"),
            ("file-absolute", "stats"),
            ("file-parent", "stats"),
        ],
        indirect=["damaged"],
    )
    def test_exits_2_with_the_file_and_no_traceback(self, damaged, command, capsys):
        project, message = damaged
        assert run_cli(project, command) == 2
        err = capsys.readouterr().err
        assert err.startswith("kgforge: error: corrupt store ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damaged", ["file-absolute", "file-parent"], indirect=True)
    def test_a_load_writes_no_file_the_manifest_names_outside_the_store(self, damaged, capsys):
        project, message = damaged
        staged = project / "staging" / "2014-05.nq"
        staged.write_bytes(b"".join(staged.read_bytes().splitlines(keepends=True)[:-1]))
        files = {p: p.read_bytes() for p in project.rglob("*.nq") if p != staged}
        assert run_cli(project, "load") == 2
        assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in project.rglob("*.nq") if p != staged} == files

    @pytest.mark.parametrize("damaged", ["edited"], indirect=True)
    def test_load_fresh_rebuilds_the_store(self, damaged, capsys):
        project, _ = damaged
        assert run_cli(project, "load", "--fresh") == 0
        capsys.readouterr()
        assert run_cli(project, "stats") == 0
        assert json.loads(capsys.readouterr().out)["total_triples"] == 1471

    @pytest.mark.parametrize("damaged", ["syntax"], indirect=True)
    def test_serve_exits_2_at_its_first_refresh(self, damaged):
        project, message = damaged
        proc = subprocess.run(
            [sys.executable, "-m", "kgforge.cli", "-c", str(project / "kgforge.json"), "serve"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def _write_index(text: str):
    def damage(project: Path) -> None:
        (project / "cache" / "index.json").write_text(text, encoding="utf-8")

    return damage


def _truncate_index(project: Path) -> None:
    path = project / "cache" / "index.json"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _drop_key(key: str):
    def damage(project: Path) -> None:
        path = project / "cache" / "index.json"
        index = json.loads(path.read_text(encoding="utf-8"))
        del index[min(index)][key]
        path.write_text(json.dumps(index), encoding="utf-8")

    return damage


def _set_entry(key: str, value):
    """Set *key* of the first index entry to ``value(project, entry)``."""

    def damage(project: Path) -> None:
        path = project / "cache" / "index.json"
        index = json.loads(path.read_text(encoding="utf-8"))
        entry = index[min(index)]
        entry[key] = value(project, entry)
        path.write_text(json.dumps(index), encoding="utf-8")

    return damage


def _first_blob(project: Path) -> Path:
    index = json.loads((project / "cache" / "index.json").read_text(encoding="utf-8"))
    return project / "cache" / index[min(index)]["file"]


def _remove_blob(project: Path) -> None:
    _first_blob(project).unlink()


def _edit_blob(project: Path) -> None:
    blob = _first_blob(project)
    blob.write_bytes(blob.read_bytes() + b" ")  # still the same JSON


CACHE_DAMAGE = {
    "index-not-json": (_write_index("{not json"), "index.json is not JSON"),
    "index-truncated": (_truncate_index, "index.json is not JSON"),
    "index-list": (_write_index("[]"), "index.json is not a JSON object"),
    "index-string": (_write_index('"entries"'), "index.json is not a JSON object"),
    "index-deep": (_write_index(DEEP_JSON), "index.json is not JSON"),
    "no-submitted": (_drop_key("submitted"), "KeyError('submitted')"),
    "no-digest": (_drop_key("digest"), "KeyError('digest')"),
    "no-file": (_drop_key("file"), "KeyError('file')"),
    "no-fetched_at": (_drop_key("fetched_at"), "KeyError('fetched_at')"),
    "entry-file-absolute": (
        _set_entry("file", lambda project, _: str(project / "outside.json")),
        "outside.json' is not '",
    ),
    "entry-file-parent": (_set_entry("file", lambda *_: "../outside.json"), "outside.json' is not '"),
    "entry-file-other-blob": (
        _set_entry("file", lambda _, entry: entry["file"].replace(".json", ".txt")),
        ".txt' is not '",
    ),
    "entry-digest-upper": (
        _set_entry("digest", lambda _, entry: entry["digest"].upper()),
        "is not 64 lowercase hex digits",
    ),
    "blob-missing": (_remove_blob, "No such file or directory"),
    "blob-edited": (_edit_blob, "does not match its digest"),
}
_INDEX_DAMAGE = [name for name in CACHE_DAMAGE if not name.startswith("blob-")]


class TestDamagedCache:
    @pytest.mark.parametrize(
        "damaged, command",
        [(name, "harvest") for name in _INDEX_DAMAGE]
        + [(name, "transform") for name in CACHE_DAMAGE],
        indirect=["damaged"],
    )
    def test_exits_2_with_the_file_and_no_traceback(self, damaged, command, capsys):
        project, message = damaged
        staged = sorted((project / "staging").iterdir())
        if command == "transform":
            # Re-map every graph, so that each record's envelope is read.
            (project / "staging" / "summary.json").unlink()
            staged.remove(project / "staging" / "summary.json")
        assert run_cli(project, command) == 2
        err = capsys.readouterr().err
        assert err.startswith("kgforge: error: ")
        assert message in err
        assert str(project / "cache") in err
        assert "Traceback" not in err
        assert sorted((project / "staging").iterdir()) == staged

    @pytest.mark.parametrize(
        "damaged", ["entry-file-absolute", "entry-file-parent"], indirect=True
    )
    def test_a_harvest_writes_no_blob_outside_the_cache(self, damaged, capsys):
        project, message = damaged
        assert run_cli(project, "harvest") == 2
        assert message in capsys.readouterr().err
        assert not (project / "outside.json").exists()

    @pytest.mark.parametrize("damaged", ["index-list", "blob-edited"], indirect=True)
    def test_run_exits_2(self, damaged, capsys):
        project, message = damaged
        (project / "staging" / "summary.json").unlink()
        assert run_cli(project, "run") == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert message in error
        assert str(project / "cache") in error


    def test_a_harvest_restores_a_missing_blob(self, loaded_project, tmp_path, capsys):
        project = tmp_path / "project"
        shutil.copytree(loaded_project, project)
        staging = project / "staging"
        before = {path.name: path.read_bytes() for path in staging.iterdir()}
        blob = _first_blob(project)
        envelope = blob.read_bytes()
        index = (project / "cache" / "index.json").read_bytes()
        blob.unlink()
        shutil.rmtree(staging)  # re-map every graph, so that each envelope is read
        assert run_cli(project, "harvest") == 0
        assert blob.read_bytes() == envelope
        assert (project / "cache" / "index.json").read_bytes() == index
        assert run_cli(project, "transform") == 0
        assert {path.name: path.read_bytes() for path in staging.iterdir()} == before


def _summary_entry(change):
    """Damage the first graph's entry of ``staging/summary.json`` with
    *change*, leaving its ``fingerprint`` and ``sha256`` intact."""

    def damage(project: Path) -> None:
        path = project / "staging" / "summary.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        change(doc["graphs"][min(doc["graphs"])])
        path.write_text(json.dumps(doc), encoding="utf-8")

    return damage


def _rename(old: str, new: str):
    return lambda entry: entry.__setitem__(new, entry.pop(old))


def _set(key: str, value):
    return lambda entry: entry.__setitem__(key, value)


SUMMARY_DAMAGE = {
    "skipped-renamed": _rename("skipped", "skipped_records"),
    "quads-string": _set("quads", "12"),
    "quads-negative": _set("quads", -1),
    "source-records-float": _set("source_records", 1.5),
    "source-records-bool": _set("source_records", True),
    "per-rule-list": _set("per_rule", [1, 2]),
    "per-rule-string-count": _set("per_rule", {"dataset.rq": "3"}),
}


class TestDamagedStagingSummary:
    """A summary entry whose fields are not what transform writes counts
    as absent: transform maps that graph again, and load records no
    source records for it."""

    @pytest.mark.parametrize("case", SUMMARY_DAMAGE)
    def test_transform_remaps_the_graph(self, loaded_project, tmp_path, capsys, case):
        project = tmp_path / "project"
        shutil.copytree(loaded_project, project)
        staging = project / "staging"
        undamaged = {path.name: path.read_bytes() for path in staging.iterdir()}
        _summary_entry(SUMMARY_DAMAGE[case])(project)
        capsys.readouterr()
        assert run_cli(project, "transform") == 0
        assert "Traceback" not in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in staging.iterdir()} == undamaged

    @pytest.mark.parametrize("case", ["source-records-float", "skipped-renamed"])
    def test_load_counts_no_source_records(self, loaded_project, tmp_path, capsys, case):
        project = tmp_path / "project"
        shutil.copytree(loaded_project, project)
        summary = json.loads((project / "staging" / "summary.json").read_text(encoding="utf-8"))
        _summary_entry(SUMMARY_DAMAGE[case])(project)
        capsys.readouterr()
        assert run_cli(project, "load", "--fresh") == 0
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((project / "store" / "manifest.json").read_text(encoding="utf-8"))
        damaged = min(summary["graphs"])
        for graph, entry in summary["graphs"].items():
            expected = 0 if graph == damaged else entry["source_records"]
            assert [e["source_records"] for e in manifest["graphs"][graph]["loads"]] == [expected]


PACKAGED_RULES = Path(__file__).parent.parent / "src" / "kgforge" / "rules"


def _point(project: Path, key: str) -> Path:
    """Make directory ``key`` of the project and point the config's
    ``key`` at it."""
    directory = project / key.removesuffix("_dir")
    directory.mkdir()
    config = project / "kgforge.json"
    doc = json.loads(config.read_text())
    doc[key] = directory.name
    config.write_text(json.dumps(doc))
    return directory


def _rule(data: bytes | None):
    """A ``rules_dir`` of the packaged rules plus ``zz.rq`` holding
    ``data``; an empty one for None."""
    def damage(project: Path) -> None:
        rules = _point(project, "rules_dir")
        if data is not None:
            for path in PACKAGED_RULES.glob("*.rq"):
                shutil.copy(path, rules / path.name)
            (rules / "zz.rq").write_bytes(data)

    return damage


def _shape(name: str, data: bytes | None):
    """A ``shapes_dir`` whose ``name`` holds ``data``, or is a directory
    for None."""
    def damage(project: Path) -> None:
        path = _point(project, "shapes_dir") / name
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)

    return damage


_UNKNOWN_CLASS = {
    "patterns": [
        {
            "name": "p",
            "antecedent": [["?x", "a", "NoSuchClass"]],
            "consequent": [["?x", "a", "NoSuchClass"]],
            "focus": "?x",
            "message": "m",
        }
    ]
}

#: Case -> (damage, command, damaged file, message).
CONFIG_DAMAGE = {
    "shapes-not-json": (
        _shape("shapes.json", b"{not json"),
        "validate",
        "shapes/shapes.json",
        "Expecting property name",
    ),
    "shapes-no-constraints": (
        _shape("shapes.json", b'{"shapes": [{"name": "x"}]}'),
        "validate",
        "shapes/shapes.json",
        "missing key 'constraints'",
    ),
    "shapes-not-utf8": (
        _shape("shapes.json", b"\xff"),
        "validate",
        "shapes/shapes.json",
        "can't decode byte 0xff",
    ),
    "shapes-unreadable": (
        _shape("shapes.json", None),
        "validate",
        "shapes/shapes.json",
        "Is a directory",
    ),
    "patterns-not-a-list": (
        _shape("patterns.json", b'{"patterns": 5}'),
        "validate",
        "shapes/patterns.json",
        "'int' object is not iterable",
    ),
    "patterns-unknown-class": (
        _shape("patterns.json", json.dumps(_UNKNOWN_CLASS).encode()),
        "validate",
        "shapes/patterns.json",
        "unknown vocabulary term: 'NoSuchClass'",
    ),
    "rule-syntax": (
        _rule(b"CONSTRUCT { ?s ?p } WHERE { ?s ?p ?o }"),
        "transform",
        "rules/zz.rq",
        "expected a term in object position",
    ),
    "rule-unknown-iri": (
        _rule(b"CONSTRUCT { ?s <http://example.org/p> ?o } WHERE { ?s <http://example.org/p> ?o }"),
        "transform",
        "rules/zz.rq",
        "missing from the vocabulary table",
    ),
    "rule-not-utf8": (
        _rule(b"\xff"),
        "transform",
        "rules/zz.rq",
        "can't decode byte 0xff",
    ),
    "rules-empty": (
        _rule(None),
        "transform",
        "rules",
        "no .rq rules found",
    ),
}


class TestBrokenConfigFile:
    @pytest.mark.parametrize("case", CONFIG_DAMAGE)
    def test_exits_1_naming_the_file(self, loaded_project, tmp_path, capsys, case):
        damage, command, name, message = CONFIG_DAMAGE[case]
        project = tmp_path / "project"
        shutil.copytree(loaded_project, project)
        damage(project)
        capsys.readouterr()
        assert run_cli(project, command) == 1
        err = capsys.readouterr().err
        assert err.startswith("kgforge: error: ")
        assert f"{project / name}" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["shapes-no-constraints", "rule-syntax"])
    def test_run_exits_2_naming_the_file(self, loaded_project, tmp_path, capsys, case):
        damage, command, name, message = CONFIG_DAMAGE[case]
        project = tmp_path / "project"
        shutil.copytree(loaded_project, project)
        damage(project)
        capsys.readouterr()
        assert run_cli(project, "run") == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed_stage"] == command
        assert f"bad configuration: {project / name}: " in summary["error"]
        assert message in summary["error"]


class TestServe:
    @staticmethod
    def start_serving(project):
        """``kgforge serve`` over the fixture store as a child process,
        and its ``/stats`` document once it answers."""
        # Reserve a port, release it, and hand it to the config.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        doc = json.loads((project / "kgforge.json").read_text())
        doc["endpoint"] = {"host": "127.0.0.1", "port": port}
        (project / "kgforge.json").write_text(json.dumps(doc))

        assert run_cli(project, "run") == 0

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "kgforge.cli",
                "-c",
                str(project / "kgforge.json"),
                "serve",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            url = f"http://127.0.0.1:{port}/stats"
            deadline = time.monotonic() + 10
            last_error = None
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(url, timeout=1) as response:
                        doc = json.loads(response.read())
                    break
                except OSError as exc:
                    last_error = exc
                    time.sleep(0.05)
            else:
                raise AssertionError(f"endpoint never came up: {last_error}")
        except BaseException:
            proc.kill()
            proc.wait(timeout=10)
            raise
        return proc, port, doc

    def test_serve_subprocess(self, project):
        proc, _, doc = self.start_serving(project)
        try:
            assert doc["graph_count"] == 6
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_sigterm_with_an_open_connection_exits_0_and_leaves_no_child(self, project):
        proc, port, _ = self.start_serving(project)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/stats")
            assert conn.getresponse().read()
            workers = {
                int(pid)
                for task in Path(f"/proc/{proc.pid}/task").iterdir()
                for pid in (task / "children").read_text().split()
            }
            assert workers
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        left = []
        for pid in workers:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            left.append(pid)
        assert left == []


def test_runtime_needs_only_the_standard_library():
    # -S leaves site-packages off sys.path and -E ignores PYTHONPATH, so
    # any third-party import fails here.
    src = Path(__file__).parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import kgforge.cli, kgforge.endpoint, kgforge.harvest, "
        "kgforge.pipeline, kgforge.validation"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_batch_commands_skip_the_network_modules():
    # http.server is needed by serve alone, urllib.request by http
    # harvests alone; every other command should not pay their import.
    src = Path(__file__).parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kgforge.cli; "
        "print(sorted({'http.server', 'urllib.request'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

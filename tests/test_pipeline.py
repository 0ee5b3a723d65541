"""Pipeline tests: config loading, per-record transform, stages, run.

Stage tests run over the checked-in fixture corpus (fixtures/records),
whose composition is documented in fixtures/README.md; the per-rule
numbers asserted here follow from that arithmetic (50 records, 20 of
which carry substance blocks).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import tempfile
import urllib.parse
import urllib.request
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgforge import mapping, pipeline
from kgforge.cli import main
from kgforge.endpoint import EndpointServer
from kgforge.harvest import RawCache, parse_envelope
from kgforge.jsonld import RawRecord, parse_payload
from kgforge.mint import MintConfig
from kgforge.pipeline import (
    ConfigError,
    LockHeld,
    PipelineConfig,
    StageError,
    TransformError,
    config_from_json_dict,
    load_config,
    run_pipeline,
    stage_harvest,
    stage_load,
    stage_stats,
    stage_transform,
    stage_validate,
    store_lock,
    transform_record,
)
from kgforge.rdf import Iri, Quad, parse_ntriples
from kgforge.store import Store

FIXTURES = Path(__file__).parent.parent / "fixtures" / "records"
GOLDENS = Path(__file__).parent / "goldens"

BASE = "https://kg.example.org/chemotion/"


def config_doc(work: Path) -> dict:
    return {
        "source": {"base_url": str(FIXTURES), "mode": "directory"},
        "mint": {"base": BASE},
        "store_dir": str(work / "store"),
        "cache_dir": str(work / "cache"),
        "staging_dir": str(work / "staging"),
    }


def make_config(work: Path) -> PipelineConfig:
    return config_from_json_dict(config_doc(work), base_dir=work)


def snapshot_dir(directory: Path) -> dict[str, bytes]:
    """Directory contents, with load-event wall times masked out.

    Two pipeline runs at different moments legitimately record different
    ``at`` timestamps in their manifests; everything else must agree to
    the byte.
    """
    out = {}
    for p in sorted(directory.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "manifest.json":
            doc = json.loads(data)
            for entry in doc.get("graphs", {}).values():
                for event in entry.get("loads", []):
                    event["at"] = "<masked>"
            data = json.dumps(doc, sort_keys=True).encode()
        out[str(p.relative_to(directory))] = data
    return out


class TestConfig:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = tmp_path / "conf" / "kgforge.json"
        path.parent.mkdir()
        doc = config_doc(tmp_path)
        doc["store_dir"] = "work/store"
        path.write_text(json.dumps(doc))
        cfg = load_config(path, env={})
        assert cfg.store_dir == tmp_path / "conf" / "work" / "store"

    def test_absolute_paths_kept(self, tmp_path):
        cfg = make_config(tmp_path)
        assert cfg.store_dir == tmp_path / "store"

    def test_defaults(self, tmp_path):
        cfg = config_from_json_dict(
            {"source": {"base_url": "x"}, "mint": {"base": BASE}},
            base_dir=tmp_path,
            env={},
        )
        assert cfg.store_dir == tmp_path / "store"
        assert cfg.cache_dir == tmp_path / "cache"
        assert cfg.staging_dir == tmp_path / "staging"
        assert cfg.rules_dir is None
        assert cfg.shapes_dir is None
        assert (cfg.host, cfg.port) == ("127.0.0.1", 8416)

    def test_env_overrides_win(self, tmp_path):
        env = {
            "KGFORGE_STORE_DIR": str(tmp_path / "elsewhere"),
            "KGFORGE_PORT": "9000",
            "KGFORGE_SOURCE_PAGE_SIZE": "7",
            "KGFORGE_SOURCE_SINCE": "2014-06-01",
            "KGFORGE_MINT_BASE": "https://other.example/kg/",
        }
        cfg = config_from_json_dict(config_doc(tmp_path), base_dir=tmp_path, env=env)
        assert cfg.store_dir == tmp_path / "elsewhere"
        assert cfg.port == 9000
        assert cfg.source.page_size == 7
        assert cfg.source.since == date(2014, 6, 1)
        assert cfg.mint.base == Iri("https://other.example/kg/")

    def test_bad_env_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="KGFORGE_PORT"):
            config_from_json_dict(
                config_doc(tmp_path), base_dir=tmp_path, env={"KGFORGE_PORT": "many"}
            )

    def test_missing_mint_base_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mint.base"):
            config_from_json_dict({"source": {"base_url": "x"}}, base_dir=tmp_path)

    def test_bad_source_mode_rejected(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["source"]["mode"] = "carrier-pigeon"
        with pytest.raises(ConfigError, match="mode"):
            config_from_json_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("mint", "base", 5, "mint.base must be a string"),
            (None, "endpoint", "localhost:8416", "endpoint must be a JSON object"),
            ("source", "base_url", 5, "source.base_url must be a string"),
            ("source", "since", 20140601, "source.since must be an ISO date string"),
            (None, "endpoint", {"host": 5}, "endpoint.host must be a string"),
            (None, "endpoint", {"port": "8416x"}, "endpoint.port must be an integer from 0 to 65535"),
            (None, "endpoint", {"port": 70000}, "endpoint.port must be an integer from 0 to 65535"),
            (None, "endpoint", {"port": -1}, "endpoint.port must be an integer from 0 to 65535"),
            (None, "endpoint", {"port": True}, "endpoint.port must be an integer from 0 to 65535"),
            (None, "endpoint", {"port": 8416.0}, "endpoint.port must be an integer from 0 to 65535"),
            ("source", "max_retries", 1.5, "source.max_retries must be an integer"),
            ("source", "page_size", True, "source.page_size must be an integer"),
            ("source", "rate_limit", "5", "source.rate_limit must be a finite number"),
            (None, "store_dir", 5, "store_dir must be a string"),
            (None, "stor_dir", "elsewhere", "unknown key stor_dir"),
            (None, "endpoint", {"prot": 9000}, "unknown key endpoint.prot"),
            (None, "sourse", {"base_url": "x"}, "unknown key sourse"),
            ("source", "since", "", "source.since: Invalid isoformat string: ''"),
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, capsys, section, key, value, message):
        doc = config_doc(tmp_path)
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ConfigError, match=f"^bad configuration: {message}$"):
            config_from_json_dict(doc, base_dir=tmp_path, env={})
        path = tmp_path / "kgforge.json"
        path.write_text(json.dumps(doc))
        assert main(["-c", str(path), "harvest"]) == 1
        err = capsys.readouterr().err
        assert err == f"kgforge: error: bad configuration: {message}\n"

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json", env={})
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad, env={})
        array = tmp_path / "array.json"
        array.write_text("[1]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(array, env={})
        for text in (b'{"a": "\xff"}', b'{"a": %s}' % (b"9" * 5000), b"[" * 10**5 + b"]" * 10**5):
            bad.write_bytes(text)
            with pytest.raises(ConfigError, match="not valid JSON"):
                load_config(bad, env={})

    def test_huge_integer_is_a_finite_number(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["source"]["rate_limit"] = 10**400
        assert config_from_json_dict(doc, env={}).source.rate_limit == 10**400


README = Path(__file__).parent.parent / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    return text[start : text.index("\n## ", start + 1)]


class TestReadme:
    """The README documents the configuration key table as it is."""

    def test_configuration_table_lists_every_key(self):
        rows = re.findall(r"^\| `([a-z_.]+)` \|", readme_section("Configuration"), re.M)
        assert sorted(rows) == sorted(pipeline._KEYS)

    def test_environment_list_names_every_variable(self):
        names = re.findall(r"`(KGFORGE_[A-Z_]+)`", readme_section("Configuration"))
        assert sorted(names) == sorted(variable for variable, _ in pipeline._KEYS.values())

    def test_quick_start_config_loads(self, tmp_path):
        (block,) = re.findall(r"```json\n(.*?)```", readme_section("Quick start"), re.S)
        path = tmp_path / "kgforge.json"
        path.write_text(block)
        cfg = load_config(path, env={})
        assert cfg.store_dir == tmp_path / "data" / "store"
        assert (cfg.host, cfg.port) == ("127.0.0.1", 8416)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_SECTIONS = ["", "source", "mint", "endpoint"]  # "" is the top level
# Each config key and section, and random keys anywhere.
_places = st.one_of(
    st.sampled_from(list(pipeline._KEYS)).map(lambda name: name.rpartition(".")[::2]),
    st.sampled_from([("", s) for s in _SECTIONS[1:]]),
    st.tuples(st.sampled_from(_SECTIONS), st.text(max_size=8)),
)


@st.composite
def _config_docs(draw):
    doc = config_doc(Path("work"))
    for section, key in draw(st.lists(_places, max_size=4)):
        target = doc.get(section) if section else doc
        if not isinstance(target, dict):
            target = doc[section] = {}
        target[key] = draw(_json_values)
    return doc


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(
    _config_docs(),
    st.dictionaries(st.sampled_from([v for v, _ in pipeline._KEYS.values()]), st.text(max_size=8), max_size=2),
)
def test_any_config_loads_or_is_a_config_error(doc, env):
    try:
        cfg = config_from_json_dict(doc, base_dir="base", env=env)
    except ConfigError:
        return
    source = cfg.source
    assert {type(cfg.port), type(source.page_size), type(source.max_retries)} == {int}
    assert type(source.rate_limit) in (int, float) and math.isfinite(source.rate_limit)


_payload_keys = st.one_of(
    st.sampled_from(["@id", "@type", "@value", "@language", "@context", "@vocab", "name", "creator", "license"]),
    st.text(max_size=6),
)
_payload_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["_:b_creator", "_:me", "http://x/y", "en", "en US", "xsd:date", "Dataset", "CC \ud800"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_payload_keys, inner, max_size=4),
    max_leaves=10,
)


class TestTransformRecord:
    def record(self, index: int) -> RawRecord:
        doc = parse_payload((FIXTURES / f"rec_{index:02d}.json").read_text())
        return RawRecord(
            source_id=doc["id"],
            submission_date=date.fromisoformat(doc["submitted"]),
            payload=doc["metadata"],
            fetched_at=datetime(2024, 1, 1),
        )

    def mint(self) -> MintConfig:
        return MintConfig(base=Iri(BASE))

    def test_record_zero_lands_in_may_graph(self):
        from kgforge.mapping import load_rule_pack

        graph_iri, mapped, per_rule = transform_record(
            self.record(0), self.mint(), load_rule_pack()
        )
        assert graph_iri == Iri(f"{BASE}graphs/2014/05")
        assert per_rule == {
            "dataset.rq": 11,
            "creator.rq": 9,
            "study.rq": 7,
            "substance.rq": 13,
        }
        assert len(mapped) == 40

    def test_root_id_is_the_minted_resource_iri(self):
        from kgforge.mapping import load_rule_pack
        from kgforge.vocab import load_table

        _, mapped, _ = transform_record(self.record(0), self.mint(), load_rule_pack())
        dataset = load_table().resolve("nfdicore:NFDI_0000009")
        subjects = mapped.subjects_of_type(dataset)
        assert subjects == {
            Iri(f"{BASE}resources/2014/05/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman")
        }

    def test_suffix_with_space_is_encoded(self):
        from kgforge.mapping import load_rule_pack
        from kgforge.vocab import load_table

        record = self.record(1)  # the 1H NMR analysis of compound 0
        _, mapped, _ = transform_record(record, self.mint(), load_rule_pack())
        dataset = load_table().resolve("nfdicore:NFDI_0000009")
        (subject,) = mapped.subjects_of_type(dataset)
        assert subject.value.endswith("/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/1H%20NMR")

    def test_id_without_suffix_rejected(self):
        record = RawRecord(
            source_id="no-slashes-here",
            submission_date=date(2014, 6, 1),
            payload={"@type": "Dataset"},
            fetched_at=datetime(2024, 1, 1),
        )
        with pytest.raises(TransformError, match="does not split"):
            transform_record(record, self.mint(), ())

    def test_non_object_payload_rejected(self):
        record = RawRecord(
            source_id="10.14272/X/Raman",
            submission_date=date(2014, 6, 1),
            payload=["not", "an", "object"],
            fetched_at=datetime(2024, 1, 1),
        )
        with pytest.raises(TransformError, match="payload"):
            transform_record(record, self.mint(), ())


    @pytest.mark.parametrize(
        "bad_type", [0, None, True, 1.5, {"Dataset": "x"}], ids=repr
    )
    def test_type_that_is_not_strings_is_a_skip_error(self, bad_type):
        from kgforge.jsonld import JsonLdError
        from kgforge.mapping import load_rule_pack

        record = self.record(0)
        record = RawRecord(
            source_id=record.source_id,
            submission_date=record.submission_date,
            payload={**record.payload, "@type": bad_type},
            fetched_at=record.fetched_at,
        )
        with pytest.raises(JsonLdError, match="@type"):
            transform_record(record, self.mint(), load_rule_pack())

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(_payload_keys, _payload_values, max_size=4))
    def test_any_payload_in_a_fixture_record_maps_or_is_a_skip_error(self, extra):
        from kgforge.mapping import load_rule_pack

        envelope = json.loads((FIXTURES / "rec_00.json").read_text())
        envelope["metadata"].update(extra)
        try:  # a ValueError from either step is a counted skip
            fields = parse_envelope(json.dumps(envelope).encode())
            transform_record(RawRecord(*fields, datetime(2024, 1, 1)), self.mint(), load_rule_pack())
        except ValueError:
            pass


class TestStages:
    def test_full_pipeline_counts(self, tmp_path):
        cfg = make_config(tmp_path)
        harvest = stage_harvest(cfg)
        assert harvest.records == 50

        transform = stage_transform(cfg)
        assert transform.records == 50
        assert transform.skipped == 0
        assert transform.graphs == 6
        # 50 records x 11 dataset triples, x9 creator, x7 study; 20
        # substance-bearing records x13.
        assert transform.per_rule == {
            "dataset.rq": 550,
            "creator.rq": 450,
            "study.rq": 350,
            "substance.rq": 260,
        }

        load = stage_load(cfg)
        assert load.inserted == transform.quads
        assert load.graphs == 6

        validated = stage_validate(cfg)
        assert validated.report.conforms
        assert validated.violations == 0
        report_doc = json.loads(cfg.report_path.read_text())
        assert report_doc == {"conforms": True, "findings": []}

        stats = stage_stats(cfg)
        assert stats.total_triples == transform.quads
        assert stats.graph_count == 6

    def test_transform_plans_each_rule_once(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        planned = []
        original = mapping.plan

        def counting(patterns):
            planned.append(patterns)
            return original(patterns)

        monkeypatch.setattr(mapping, "plan", counting)
        assert stage_transform(cfg).records == 50
        assert len(planned) == 4

    def test_staging_layout(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        names = sorted(p.name for p in cfg.staging_dir.glob("*.nq"))
        assert names == [
            "2014-05.nq",
            "2014-06.nq",
            "2014-07.nq",
            "2014-08.nq",
            "2014-09.nq",
            "2014-10.nq",
        ]
        summary = json.loads((cfg.staging_dir / "summary.json").read_text())
        graphs = summary["graphs"]
        assert graphs[f"{BASE}graphs/2014/05"]["source_records"] == 1
        assert sum(meta["source_records"] for meta in graphs.values()) == 50

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[" * 100_000 + "]" * 100_000, '{"graphs": []}'],
        ids=["not-json", "nested-too-deep", "graphs-list"],
    )
    def test_an_unreadable_summary_counts_as_none(self, tmp_path, mapped_records, text):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        staged = {p.name: p.read_bytes() for p in cfg.staging_dir.iterdir()}
        summary = cfg.staging_dir / "summary.json"
        summary.write_text(text, encoding="utf-8")
        # Load parses every staged file, since no digest certifies one.
        assert stage_load(cfg).inserted == 1471
        mapped_records.clear()
        stage_transform(cfg)
        assert len(mapped_records) == 50
        assert {p.name: p.read_bytes() for p in cfg.staging_dir.iterdir()} == staged

    def test_reload_inserts_nothing(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        first = stage_load(cfg)
        assert first.inserted == first.total
        again = stage_load(cfg)
        assert again.inserted == 0
        assert again.total == first.total

    def test_reload_parses_only_staged_files_off_their_digest(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        stage_load(cfg)
        parsed = []
        read = pipeline.read_nquads
        monkeypatch.setattr(pipeline, "read_nquads", lambda data: parsed.append(data) or read(data))
        assert stage_load(cfg).inserted == 0
        assert parsed == []
        # A manifest persisted without digests: each staged file is
        # parsed, and replacing a graph by the same content is no change.
        manifest = cfg.store_dir / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in doc["graphs"].values():
            del entry["sha256"]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        before = snapshot_dir(cfg.store_dir)
        again = stage_load(cfg)
        assert (again.inserted, again.removed) == (0, 0)
        assert len(parsed) == 6
        assert snapshot_dir(cfg.store_dir) == before

    def test_fresh_load_rebuilds(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        first = stage_load(cfg)
        rebuilt = stage_load(cfg, fresh=True)
        assert rebuilt.inserted == first.total
        assert rebuilt.total == first.total

    def test_load_without_staging_fails(self, tmp_path):
        cfg = make_config(tmp_path)
        with pytest.raises(StageError, match="nothing staged"):
            stage_load(cfg)

    def test_corrupt_staged_file_is_a_stage_error(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        (cfg.staging_dir / "2014-06.nq").write_bytes(b"<http://a/s> <http://a/p> nope .\n")
        with pytest.raises(StageError, match="bad staged file 2014-06.nq"):
            stage_load(cfg)

    @pytest.mark.parametrize(
        "stripped",
        [slice(None), slice(0, 1), slice(1, 2)],
        ids=["every-line", "first-line", "second-line"],
    )
    def test_staged_quad_without_a_graph_is_a_stage_error(self, tmp_path, stripped):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        stage_load(cfg)
        store_files = {
            p: p.read_bytes() for p in sorted(cfg.store_dir.rglob("*")) if p.is_file()
        }
        staged = cfg.staging_dir / "2014-05.nq"
        lines = staged.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[stripped] = [line.rsplit(" <", 1)[0] + " .\n" for line in lines[stripped]]
        staged.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StageError, match="bad staged file 2014-05.nq"):
            stage_load(cfg)
        assert {
            p: p.read_bytes() for p in sorted(cfg.store_dir.rglob("*")) if p.is_file()
        } == store_files

    def test_transform_skips_broken_cached_record(self, tmp_path, caplog):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        cache = RawCache(cfg.cache_dir)
        bad = {
            "id": "10.14272/BROKEN/Raman",
            "submitted": "2014-06-03",
            "metadata": {"@reverse": {"x": "y"}},
        }
        cache.put(
            bad["id"],
            date(2014, 6, 3),
            json.dumps(bad).encode(),
            datetime(2024, 1, 1),
        )
        with caplog.at_level("WARNING", logger="kgforge.pipeline"):
            result = stage_transform(cfg)
        assert result.records == 50
        assert result.skipped == 1
        assert "BROKEN" in caplog.text

    def test_run_equals_sequential_composition(self, tmp_path):
        run_work = tmp_path / "by-run"
        seq_work = tmp_path / "by-stages"
        summary = run_pipeline(make_config(run_work))
        assert summary["ok"] is True

        cfg = make_config(seq_work)
        stage_harvest(cfg)
        transform = stage_transform(cfg)
        load = stage_load(cfg)
        stage_validate(cfg)

        assert summary["stages"]["transform"]["quads"] == transform.quads
        assert summary["stages"]["load"]["inserted"] == load.inserted
        assert snapshot_dir(run_work / "store") == snapshot_dir(seq_work / "store")

    def test_run_parses_the_store_once(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        loads = []
        original = Store.load.__func__

        def counting_load(cls, directory):
            loads.append(directory)
            return original(cls, directory)

        monkeypatch.setattr(Store, "load", classmethod(counting_load))
        summary = run_pipeline(cfg, fresh=True)
        assert summary["ok"] is True
        assert len(loads) == 1
        # Validate and stats called alone still read the persisted store,
        # and see what the run saw in memory.
        report = json.loads(cfg.report_path.read_text())
        assert stage_validate(cfg).report.to_json_dict() == report
        assert stage_stats(cfg).to_json_dict() == {
            k: v for k, v in summary["stages"]["stats"].items() if k != "seconds"
        }
        assert len(loads) == 3

    def test_failed_stage_names_itself(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["source"]["base_url"] = str(tmp_path / "missing-dir")
        cfg = config_from_json_dict(doc, base_dir=tmp_path)
        with pytest.raises(StageError, match="stage harvest failed") as info:
            run_pipeline(cfg)
        assert info.value.summary["ok"] is False
        assert info.value.summary["failed_stage"] == "harvest"

    def test_validation_violations_abort_the_run(self, tmp_path):
        cfg = make_config(tmp_path)
        faulty = parse_ntriples(
            (GOLDENS / "faults" / "role_without_bearer.nt").read_text()
        )
        store = Store()
        store.load_quads(
            Quad(t, Iri(f"{BASE}graphs/2014/05")) for t in faulty
        )
        store.persist(cfg.store_dir)
        # Make harvest/transform/load no-ops pointing at an empty source.
        empty = tmp_path / "empty-source"
        empty.mkdir()
        doc = config_doc(tmp_path)
        doc["source"]["base_url"] = str(empty)
        cfg = config_from_json_dict(doc, base_dir=tmp_path)
        summary = run_pipeline(cfg)
        assert summary["ok"] is False
        assert summary["failed_stage"] == "validate"
        assert summary["stages"]["validate"]["violations"] >= 1
        assert "stats" not in summary["stages"]


class TestByteContract:
    """The bytes the fixture corpus produces are pinned: every staged and
    stored graph file by its SHA-256 in ``goldens/fixture_store.sha256``
    (``sha256sum`` format, relative to the work directory), and an export
    is the stored file of its graph."""

    def test_staged_and_stored_files_match_their_digests(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        stage_load(cfg)
        files = sorted([*cfg.staging_dir.glob("*.nq"), *(cfg.store_dir / "graphs").glob("*.nq")])
        digests = "".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(tmp_path).as_posix()}\n"
            for p in files
        )
        assert digests == (GOLDENS / "fixture_store.sha256").read_text(encoding="utf-8")

        server = EndpointServer(cfg.store_dir, "127.0.0.1", 0)
        server.refresh()
        server.start()
        try:
            with urllib.request.urlopen(f"{server.url}/export/2014/05", timeout=10) as response:
                body = response.read()
        finally:
            server.stop()
        assert body == (cfg.store_dir / "graphs" / "2014-05.nq").read_bytes()

    def test_endpoint_bodies_match_their_digests(self, tmp_path):
        """The raw body of each request in ``ENDPOINT_REQUESTS`` is pinned
        by its SHA-256 in ``goldens/endpoint_bodies.sha256``."""
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        stage_load(cfg)
        assert endpoint_body_digests(cfg.store_dir) == (
            GOLDENS / "endpoint_bodies.sha256"
        ).read_text(encoding="utf-8")


NFDI = "https://nfdi.fiz-karlsruhe.de/ontology/"
G_JUNE = f"<{BASE}graphs/2014/06>"

#: Label and query of each request whose body the golden pins.
ENDPOINT_REQUESTS = {
    "select-type": f"SELECT ?d WHERE {{ ?d a <{NFDI}NFDI_0000009> }}",
    "select-order-limit": (
        f"SELECT ?label ?s WHERE {{ ?s <{NFDI}NFDI_0000216> ?label }} ORDER BY ?label LIMIT 7"
    ),
    "select-order-offset": (
        f"SELECT ?s WHERE {{ ?s a ?t }} ORDER BY ?t LIMIT 5 OFFSET 12"
    ),
    "select-offset-past-end": f"SELECT ?s WHERE {{ ?s a <{NFDI}NFDI_0000009> }} OFFSET 1000",
    "select-limit-0": "SELECT ?s WHERE { ?s ?p ?o } LIMIT 0",
    "select-graph-star": (
        f"SELECT * WHERE {{ GRAPH {G_JUNE} {{ ?s ?p ?o }} }} ORDER BY ?p LIMIT 20 OFFSET 3"
    ),
    "select-join-projected": (
        f"SELECT ?t ?s WHERE {{ ?s a ?t . ?s <{NFDI}NFDI_0000216> ?label }} ORDER BY ?t"
    ),
    "select-unbound": f"SELECT ?s ?missing WHERE {{ ?s <{NFDI}NFDI_0000216> ?l }} LIMIT 3",
    "select-no-match": f"SELECT ?s WHERE {{ ?s a <{NFDI}Nothing> }}",
    "ask-true": f"ASK {{ GRAPH {G_JUNE} {{ ?s a <{NFDI}NFDI_0000009> }} }}",
    "ask-false": f"ASK {{ ?s a <{NFDI}Nothing> }}",
    "construct": (
        f"CONSTRUCT {{ ?s <{BASE}label> ?l }} WHERE {{ ?s <{NFDI}NFDI_0000216> ?l }}"
    ),
    "construct-graph": (
        f"CONSTRUCT {{ ?s a ?t }} WHERE {{ GRAPH {G_JUNE} {{ ?s a ?t }} }}"
    ),
}


def endpoint_body_digests(store_dir: Path) -> str:
    """``sha256sum``-style lines of the raw HTTP body of each request in
    ``ENDPOINT_REQUESTS``, from a live server over *store_dir*."""
    server = EndpointServer(store_dir, "127.0.0.1", 0)
    server.refresh()
    server.start()
    lines = []
    try:
        for label, query in ENDPOINT_REQUESTS.items():
            url = f"{server.url}/sparql?" + urllib.parse.urlencode({"query": query})
            with urllib.request.urlopen(url, timeout=10) as response:
                body = response.read()
            lines.append(f"{hashlib.sha256(body).hexdigest()}  {label}\n")
    finally:
        server.stop()
    return "".join(lines)


class TestStoreLock:
    def test_exclusive(self, tmp_path):
        store_dir = tmp_path / "store"
        with store_lock(store_dir):
            assert (tmp_path / "store.lock").exists()
            with pytest.raises(LockHeld, match="store.lock"):
                with store_lock(store_dir):
                    pass
        assert not (tmp_path / "store.lock").exists()

    def test_released_on_error(self, tmp_path):
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="boom"):
            with store_lock(store_dir):
                raise RuntimeError("boom")
        with store_lock(store_dir):
            pass


# ---------------------------------------------------------------------------
# Delta ingest: re-stage only changed graphs, replace them in the store
# ---------------------------------------------------------------------------


def copy_fixtures(source: Path) -> Path:
    source.mkdir(parents=True)
    for path in sorted(FIXTURES.glob("*.json")):
        shutil.copy(path, source / path.name)
    return source


def source_config(work: Path, source: Path, **overrides) -> PipelineConfig:
    doc = config_doc(work)
    doc["source"]["base_url"] = str(source)
    doc.update(overrides)
    return config_from_json_dict(doc, base_dir=work)


def edit_name(source: Path, index: int, name: str) -> None:
    path = source / f"rec_{index:02d}.json"
    doc = json.loads(path.read_text())
    doc["metadata"]["name"] = name
    path.write_text(json.dumps(doc, indent=2))


def add_record(source: Path, like: int, key: str, submitted: str) -> None:
    """A new record shaped like fixture ``like`` under a new id."""
    doc = json.loads((FIXTURES / f"rec_{like:02d}.json").read_text())
    doc["id"] = f"10.14272/{key}/Raman"
    doc["submitted"] = submitted
    (source / f"add_{key}.json").write_text(json.dumps(doc, indent=2))


def ingest(cfg: PipelineConfig):
    stage_harvest(cfg)
    transform = stage_transform(cfg)
    return transform, stage_load(cfg)


def file_states(directory: Path, pattern: str = "**/*") -> dict[str, tuple]:
    """Backdate each file's mtime to the epoch and return name -> (inode,
    mtime, bytes), so that any later write shows: a rename changes the
    inode, a write in place the mtime."""
    states = {}
    for p in sorted(directory.glob(pattern)):
        if p.is_file():
            os.utime(p, ns=(0, 0))
            states[str(p.relative_to(directory))] = (p.stat().st_ino, 0, p.read_bytes())
    return states


def written(directory: Path, pattern: str = "**/*") -> dict[str, tuple]:
    """The same view without backdating."""
    return {
        str(p.relative_to(directory)): (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted(directory.glob(pattern))
        if p.is_file()
    }


@pytest.fixture
def mapped_records(monkeypatch) -> list[str]:
    """Source ids passed to ``transform_record``, in call order."""
    calls: list[str] = []
    original = pipeline.transform_record

    def counting(record, *args, **kwargs):
        calls.append(record.source_id)
        return original(record, *args, **kwargs)

    monkeypatch.setattr(pipeline, "transform_record", counting)
    return calls


class TestDeltaIngest:
    def test_edited_record_replaces_its_old_triple(self, tmp_path):
        source = copy_fixtures(tmp_path / "source")
        cfg = source_config(tmp_path, source)
        ingest(cfg)
        edit_name(source, 7, "Raman Spectrum, revised")
        transform, load = ingest(cfg)
        assert transform.quads == 1471
        assert (load.inserted, load.removed) == (1, 1)
        assert load.total == 1471
        store = Store.load(cfg.store_dir)
        assert len(store) == 1471
        events = [e for g in store.graphs() for e in store.graph_entry(g).loads if "removed" in e]
        assert [(e["inserted"], e["removed"]) for e in events] == [(1, 1)]

    def test_only_touched_graphs_are_remapped(self, tmp_path, mapped_records):
        source = copy_fixtures(tmp_path / "source")
        cfg = source_config(tmp_path, source)
        ingest(cfg)
        assert len(mapped_records) == 50
        mapped_records.clear()
        for k in range(25):
            add_record(source, k, f"NEWKEY{k:02d}", f"2014-11-{k + 1:02d}")
        transform, load = ingest(cfg)
        assert sorted(mapped_records) == sorted(
            f"10.14272/NEWKEY{k:02d}/Raman" for k in range(25)
        )
        assert load.removed == 0 and load.inserted == load.total - 1471
        # Totals count reused graphs too: they equal a full transform's.
        scratch = source_config(tmp_path / "scratch", source)
        stage_harvest(scratch)
        assert stage_transform(scratch) == transform
        assert transform.records == 75 and transform.graphs == 7
        mapped_records.clear()
        assert stage_transform(cfg) == transform
        assert mapped_records == []

    def test_changed_rule_restages_every_graph(self, tmp_path, mapped_records):
        rules = tmp_path / "rules"
        rules.mkdir()
        for path in (Path(pipeline.__file__).parent / "rules").glob("*.rq"):
            shutil.copy(path, rules / path.name)
        cfg = source_config(tmp_path, FIXTURES, rules_dir=str(rules))
        stage_harvest(cfg)
        first = stage_transform(cfg)
        mapped_records.clear()
        study = rules / "study.rq"
        study.write_text(study.read_text() + "\n# reviewed\n")
        assert stage_transform(cfg) == first
        assert len(mapped_records) == 50

    def test_changed_granularity_restages_every_graph(self, tmp_path, mapped_records):
        stage_harvest(make_config(tmp_path))
        stage_transform(make_config(tmp_path))
        mapped_records.clear()
        doc = config_doc(tmp_path)
        doc["mint"]["graph_granularity"] = "day"
        cfg = config_from_json_dict(doc, base_dir=tmp_path)
        result = stage_transform(cfg)
        assert len(mapped_records) == 50
        names = sorted(p.name for p in cfg.staging_dir.glob("*.nq"))
        assert len(names) == result.graphs > 6
        assert all(len(name) == len("2014-05-17.nq") for name in names)

    def test_hand_edited_staged_file_restages_its_graph_only(self, tmp_path, mapped_records):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        june = cfg.staging_dir / "2014-06.nq"
        original = june.read_bytes()
        june.write_bytes(original.split(b"\n", 1)[1])
        summary = json.loads((cfg.staging_dir / "summary.json").read_text())
        in_june = summary["graphs"][f"{BASE}graphs/2014/06"]["source_records"]
        mapped_records.clear()
        stage_transform(cfg)
        assert len(mapped_records) == in_june
        assert june.read_bytes() == original

    def test_replayed_ingest_writes_no_byte(self, tmp_path):
        cfg = make_config(tmp_path)
        ingest(cfg)
        store_before = file_states(cfg.store_dir)
        staged_before = file_states(cfg.staging_dir, "*.nq")
        transform, load = ingest(cfg)
        assert (load.inserted, load.removed) == (0, 0)
        assert written(cfg.store_dir) == store_before
        assert written(cfg.staging_dir, "*.nq") == staged_before

    def test_failed_persist_leaves_the_old_store(self, tmp_path, monkeypatch):
        source = copy_fixtures(tmp_path / "source")
        cfg = source_config(tmp_path, source)
        ingest(cfg)
        before = Store.load(cfg.store_dir)
        on_disk = file_states(cfg.store_dir)
        edit_name(source, 7, "Raman Spectrum, revised")
        stage_harvest(cfg)
        stage_transform(cfg)
        writes: list[str] = []

        def failing(write):
            def failing_write(path, data, **kwargs):
                writes.append(path.name)
                if len(writes) == fail_at:
                    raise OSError(f"disk full at write {fail_at}")
                return write(path, data, **kwargs)

            return failing_write

        monkeypatch.setattr(Path, "write_bytes", failing(Path.write_bytes))
        monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
        # The replaced graph's file, then the manifest.
        for fail_at in (1, 2):
            writes.clear()
            with pytest.raises(OSError, match="disk full"):
                stage_load(cfg)
            assert Store.load(cfg.store_dir) == before
            assert written(cfg.store_dir) == on_disk
            assert list(cfg.store_dir.rglob("*.tmp")) == []
        writes.clear()
        fail_at = 0
        stage_load(cfg)
        assert [name.split(".")[0] for name in writes] == ["2014-06", "manifest"]
        assert len(Store.load(cfg.store_dir)) == 1471
        assert Store.load(cfg.store_dir) != before


_ADD_MONTHS = ["2014-06-11", "2014-11-02", "2015-01-20"]
_edits = st.tuples(
    st.just("edit"), st.integers(0, 49), st.text(alphabet="abc XYZ", min_size=1, max_size=8)
)
_adds = st.tuples(st.just("add"), st.integers(0, 49), st.sampled_from(_ADD_MONTHS))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.lists(st.one_of(_edits, _adds), min_size=1, max_size=3), min_size=1, max_size=3))
def test_delta_ingest_equals_a_fresh_build(batches):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        source = copy_fixtures(root / "source")
        delta = source_config(root / "delta", source)
        ingest(delta)
        added = 0
        for batch in batches:
            for op, index, value in batch:
                if op == "edit":
                    edit_name(source, index, value)
                else:
                    add_record(source, index, f"ADDED{added:03d}", value)
                    added += 1
            ingest(delta)
        fresh = source_config(root / "fresh", source)
        stage_harvest(fresh)
        stage_transform(fresh)
        stage_load(fresh, fresh=True)
        assert snapshot_dir(delta.staging_dir) == snapshot_dir(fresh.staging_dir)
        assert snapshot_dir(delta.store_dir / "graphs") == snapshot_dir(
            fresh.store_dir / "graphs"
        )

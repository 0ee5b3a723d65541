"""Pipeline tests: config loading, per-record transform, stages, run.

Stage tests run over the checked-in fixture corpus (fixtures/records),
whose composition is documented in fixtures/README.md; the per-rule
numbers asserted here follow from that arithmetic (50 records, 20 of
which carry substance blocks).
"""

from __future__ import annotations

import json
from datetime import date, datetime
from pathlib import Path

import pytest

from kgforge.harvest import RawCache
from kgforge.jsonld import RawRecord
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
    def test_round_trips_through_json(self, tmp_path):
        cfg = make_config(tmp_path)
        again = config_from_json_dict(cfg.to_json_dict(), base_dir=tmp_path)
        assert again == cfg

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


class TestTransformRecord:
    def record(self, index: int) -> RawRecord:
        doc = json.loads((FIXTURES / f"rec_{index:02d}.json").read_text())
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

    def test_reload_inserts_nothing(self, tmp_path):
        cfg = make_config(tmp_path)
        stage_harvest(cfg)
        stage_transform(cfg)
        first = stage_load(cfg)
        assert first.inserted == first.total
        again = stage_load(cfg)
        assert again.inserted == 0
        assert again.total == first.total

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

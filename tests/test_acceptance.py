"""Acceptance gate: nine criteria, one test and one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen.  Each criterion states its own tolerance; where a
runtime bound is part of the criterion it is asserted here, not assumed.

The numbers frozen in criterion 8 are hand counts over the fixture
corpus (see fixtures/README.md for the arithmetic).  The public
Chemotion endpoint reports figures three orders of magnitude larger;
those require the repository's full history and are quoted in the
README as reference-deployment numbers only.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import urllib.parse
import urllib.request
from contextlib import contextmanager
from datetime import date, datetime
from importlib import resources
from pathlib import Path

import pytest

from kgforge.cli import main as cli_main
from kgforge.endpoint import EndpointServer
from kgforge.jsonld import RawRecord, load_default_context, parse_payload, to_rdf
from kgforge.mapping import apply_rule, eval_bgp, parse_rule, plan
from kgforge.mint import MintConfig, encode_for_uri, mint_resource_iri
from kgforge.rdf import Iri, parse_ntriples, serialize_ntriples
from kgforge.store import Store
from kgforge.validation import load_patterns, load_shapes, validate
from kgforge.vocab import NFDICORE, OBO

from .oracle import eval_bgp_bruteforce, product_cost, random_bgp, random_graph

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = REPO_ROOT / "fixtures" / "records"
GOLDENS = Path(__file__).parent / "goldens"
FAULTS = GOLDENS / "faults"

BASE = "https://kg.example.org/chemotion/"

REFERENCE_BASE = "https://ditrare.ise.fiz-karlsruhe.de/chemotion-kg/"
REFERENCE_RESOURCE = (
    REFERENCE_BASE + "resources/2014/05/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman"
)


@contextmanager
def criterion(number: int, title: str):
    """Print one verdict line per criterion, pass or fail."""
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number} ({title}): FAIL")
        raise
    print(f"acceptance criterion {number} ({title}): PASS")


def write_project(work: Path) -> Path:
    doc = {
        "source": {"base_url": str(FIXTURES), "mode": "directory"},
        "mint": {"base": BASE},
        "store_dir": "store",
        "cache_dir": "cache",
        "staging_dir": "staging",
    }
    config = work / "kgforge.json"
    config.write_text(json.dumps(doc, indent=2))
    return config


@pytest.fixture(scope="module")
def fixture_store(tmp_path_factory) -> Path:
    """A store built once from the fixture corpus, shared by criteria 7 and 8."""
    work = tmp_path_factory.mktemp("acceptance")
    config = write_project(work)
    assert cli_main(["-c", str(config), "run"]) == 0
    return work / "store"


class TestAcceptance:
    def test_criterion_1_dataset_rule_fidelity(self):
        started = time.perf_counter()
        with criterion(1, "dataset rule fidelity"):
            text = (
                resources.files("kgforge")
                .joinpath("rules/dataset.rq")
                .read_text(encoding="utf-8")
            )
            rule = parse_rule(text, name="dataset.rq")
            payload = parse_payload(
                (GOLDENS / "dataset_rule_fixture.json").read_text(encoding="utf-8")
            )
            record = RawRecord(
                source_id="10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman",
                submission_date=date(2014, 5, 17),
                payload=payload,
                fetched_at=datetime(2025, 7, 1, 12, 0, 0),
            )
            source = to_rdf(record, load_default_context())
            assert len(source) == 11
            out = apply_rule(source, rule)
            expected = (GOLDENS / "dataset_rule_golden.nt").read_text(encoding="utf-8")
            assert serialize_ntriples(out) == expected
            assert time.perf_counter() - started < 1.0

    def test_criterion_2_minted_iri(self):
        with criterion(2, "minted IRI"):
            cfg = MintConfig(base=Iri(REFERENCE_BASE))
            minted = mint_resource_iri(
                cfg, 2014, 5, "10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N", "Raman"
            )
            assert minted.value == REFERENCE_RESOURCE

    def test_criterion_3_join_engine_matches_oracle(self):
        started = time.perf_counter()
        with criterion(3, "join engine vs brute-force oracle"):
            rng = random.Random(20140517)
            compared = 0
            while compared < 500:
                graph = random_graph(rng)
                bgp = random_bgp(rng)
                if product_cost(graph, bgp) > 2_000_000:
                    continue
                mine = {frozenset(s.items()) for s in eval_bgp(graph, plan(bgp))}
                assert mine == eval_bgp_bruteforce(graph, bgp)
                compared += 1
            assert time.perf_counter() - started < 30.0

    def test_criterion_4_encode_for_uri_conformance(self):
        with criterion(4, "ENCODE_FOR_URI conformance"):
            assert encode_for_uri("a b/č") == "a%20b%2F%C4%8D"
            assert encode_for_uri("~safe-chars_stay.put") == "~safe-chars_stay.put"
            rng = random.Random(3986)
            ranges = (
                (0x20, 0x7E),
                (0xA0, 0x2FF),
                (0x370, 0x3FF),
                (0x4E00, 0x4FFF),
                (0x1F300, 0x1F5FF),
            )
            for _ in range(1000):
                text = "".join(
                    chr(rng.randint(*rng.choice(ranges)))
                    for _ in range(rng.randint(0, 24))
                )
                encoded = encode_for_uri(text)
                assert encoded.isascii()
                assert urllib.parse.unquote(encoded, errors="strict") == text

    def test_criterion_5_idempotent_rerun(self, tmp_path, capsys):
        with criterion(5, "idempotent rerun"):
            config = write_project(tmp_path)
            assert cli_main(["-c", str(config), "run"]) == 0
            capsys.readouterr()
            store_dir = tmp_path / "store"
            before = {
                str(p.relative_to(store_dir)): p.read_bytes()
                for p in sorted(store_dir.rglob("*"))
                if p.is_file()
            }
            assert cli_main(["-c", str(config), "run"]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["stages"]["load"]["inserted"] == 0
            after = {
                str(p.relative_to(store_dir)): p.read_bytes()
                for p in sorted(store_dir.rglob("*"))
                if p.is_file()
            }
            assert after == before

    def test_criterion_6_validator_sensitivity(self):
        with criterion(6, "validator sensitivity"):
            shapes = load_shapes()
            patterns = load_patterns()
            cases = {
                "role_without_bearer.nt": "process-agent-role",
                "datum_without_unit.nt": "measurement-datum-unit",
                "publishing_without_interval.nt": "publishing-temporal-region",
            }
            for filename, rule_name in cases.items():
                faulty = parse_ntriples((FAULTS / filename).read_text())
                report = validate(faulty, (), patterns)
                flagged = {
                    f.source for f in report.findings if f.severity == "violation"
                }
                assert rule_name in flagged, f"{filename} not flagged by {rule_name}"
            golden = parse_ntriples((GOLDENS / "integrated_golden.nt").read_text())
            report = validate(golden, shapes, patterns)
            violations = [f for f in report.findings if f.severity == "violation"]
            assert violations == []

    def test_criterion_7_endpoint_integration(self, fixture_store):
        with criterion(7, "endpoint integration"):
            started = time.perf_counter()
            server = EndpointServer(fixture_store, "127.0.0.1", 0)
            server.refresh()
            server.start()
            try:
                datasets = self.select(
                    server,
                    f"SELECT ?d WHERE {{ ?d a <{NFDICORE}NFDI_0000009> }}",
                )
                assert datasets["head"]["vars"] == ["d"]
                bindings = datasets["results"]["bindings"]
                assert len(bindings) == 50
                assert all(b["d"]["type"] == "uri" for b in bindings)

                scoped = self.select(
                    server,
                    f"SELECT ?d WHERE {{ GRAPH <{BASE}graphs/2014/05> "
                    f"{{ ?d a <{NFDICORE}NFDI_0000009> }} }}",
                )
                rows = scoped["results"]["bindings"]
                assert [b["d"]["value"] for b in rows] == [
                    f"{BASE}resources/2014/05/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman"
                ]
            finally:
                server.stop()
            assert time.perf_counter() - started < 2.0

    @staticmethod
    def select(server: EndpointServer, query: str) -> dict:
        url = server.url + "/sparql?" + urllib.parse.urlencode({"query": query})
        with urllib.request.urlopen(url) as response:
            assert response.headers.get_content_type() == (
                "application/sparql-results+json"
            )
            return json.loads(response.read())

    def test_criterion_8_statistics_at_fixture_scale(self, fixture_store):
        with criterion(8, "statistics at fixture scale"):
            stats = Store.load(fixture_store).stats()
            assert stats.total_triples == 1471
            assert stats.graph_count == 6
            expected = {
                f"{NFDICORE}NFDI_0000009": 50,  # dataset: one per record
                f"{NFDICORE}NFDI_0000014": 50,  # publishing process: one per study
                f"{NFDICORE}NFDI_0000004": 10,  # person: ten distinct creators
                f"{NFDICORE}NFDI_0000003": 3,  # organization: three affiliations
                f"{NFDICORE}NFDI_0000223": 10,  # URL node: one image per compound
                f"{OBO}BFO_0000015": 60,  # process: 50 studies + 10 creations
                f"{OBO}BFO_0000008": 50,  # temporal region: dates are all distinct
                f"{OBO}BFO_0000023": 10,  # role: one per creator
                f"{OBO}BFO_0000019": 10,  # quality: molecular weight per compound
                f"{OBO}CHEBI_59999": 10,  # chemical substance
                f"{OBO}CHEBI_23367": 10,  # molecular entity
                f"{OBO}IAO_0000109": 10,  # measurement datum: one weight each
                f"{OBO}IAO_0000003": 1,  # measurement unit label: shared g/mol
            }
            actual = {iri.value: n for iri, n in stats.per_class.items()}
            assert actual == expected

    def test_criterion_9_suite_budget(self):
        with criterion(9, "whole-suite budget"):
            started = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "pytest",
                    "-q",
                    "-p",
                    "no:cacheprovider",
                    "--ignore",
                    str(Path(__file__)),
                ],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
            )
            elapsed = time.perf_counter() - started
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert elapsed < 120.0

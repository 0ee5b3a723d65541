"""The kgforge names that the benchmark under ``perfbench/`` relies on.

The tracer patches functions by the name each module looks them up by,
and the query mix's in-process oracle answers every request through the
endpoint's and the store's public functions.  A renamed function would
otherwise show only when the benchmark runs; here it fails a test.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from kgforge.cli import main
from kgforge.store import Store

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``tracing`` and ``querymix`` modules, imported as
    ``perfbench/run.py`` imports them: with ``perfbench/`` on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("querymix")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def fixture_store(tmp_path_factory) -> Store:
    """The store that ``kgforge run`` builds from the fixture corpus."""
    work = tmp_path_factory.mktemp("perfbench")
    config = work / "kgforge.json"
    doc = {
        "source": {"base_url": str(ROOT / "fixtures" / "records"), "mode": "directory"},
        "mint": {"base": "https://kg.example.org/chemotion/"},
    }
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["-c", str(config), "run"]) == 0
    return Store.load(work / "store")


def test_every_name_the_tracer_patches_exists(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer._patches
    assert tracer._patches == []


def test_the_query_mix_oracle_answers_every_request(perfbench, fixture_store):
    _, querymix = perfbench
    mix = querymix.build_mix(fixture_store, 1)
    requests = list(dict.fromkeys(request for stream in mix.values() for request in stream))
    assert {request.kind for request in requests} == {
        "select-subject",
        "select-object",
        "ask",
        "construct",
        "stats",
        "type-scan",
        "scoped-join",
        "scoped-list",
        "export",
    }
    for request in requests:
        body, _ = querymix.respond(fixture_store, request)
        assert body, request

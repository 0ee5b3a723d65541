"""Quad store tests: ingestion idempotence, indexed lookup against a
linear-scan oracle, statistics, and the persisted directory layout."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgforge.endpoint import execute_ask, execute_select, parse_query
from kgforge.rdf import RDF_TYPE, Graph, Iri, Literal, Quad, Triple, parse_ntriples
from kgforge.store import CorruptManifest, Store, graph_filename
from kgforge.validation import load_shapes, validate_shapes

from . import oracle

EX = "http://example.org/"
GOLDENS = Path(__file__).parent / "goldens"


def ex(local: str) -> Iri:
    return Iri(EX + local)


G_MAY = Iri("https://x.example/graphs/2014/05")
G_JUNE = Iri("https://x.example/graphs/2014/06")
G_DAY = Iri("https://x.example/graphs/2014/05/17")

T1 = datetime(2025, 7, 1, 6, 0, 0, tzinfo=timezone.utc)
T2 = datetime(2025, 7, 2, 6, 0, 0, tzinfo=timezone.utc)

Q1 = Quad(Triple(ex("d1"), ex("p"), Literal("x")), G_MAY)
Q2 = Quad(Triple(ex("d2"), ex("p"), ex("d1")), G_MAY)
Q3 = Quad(Triple(ex("d3"), ex("q"), Literal("y")), G_JUNE)


def store_with(*quads: Quad) -> Store:
    store = Store()
    store.load_quads(quads, loaded_at=T1)
    return store


class TestLoadQuads:
    def test_counts_only_new_quads(self):
        store = Store()
        assert store.load_quads([Q1, Q2], loaded_at=T1) == 2
        assert store.load_quads([Q1, Q2], loaded_at=T2) == 0
        assert len(store) == 2

    def test_empty_batch(self):
        assert Store().load_quads([], loaded_at=T1) == 0

    def test_duplicate_within_batch_counted_once(self):
        assert Store().load_quads([Q1, Q1], loaded_at=T1) == 1

    def test_replay_leaves_store_equal(self):
        once = store_with(Q1, Q2, Q3)
        twice = store_with(Q1, Q2, Q3)
        twice.load_quads([Q1, Q2, Q3], loaded_at=T2)
        assert once == twice

    def test_default_graph_quads_rejected(self):
        with pytest.raises(ValueError, match="named graph"):
            Store().load_quads([Quad(Q1.triple, None)], loaded_at=T1)

    def test_a_rejected_batch_changes_nothing(self):
        store = Store()
        with pytest.raises(ValueError, match="named graph"):
            store.load_quads([Q1, Quad(Q2.triple, None)], loaded_at=T1)
        assert store == Store()
        assert store.graphs() == set()
        with pytest.raises(KeyError):
            store.graph_entry(G_MAY)

    def test_load_event_recorded_per_touched_graph(self):
        store = Store()
        store.load_quads([Q1, Q2, Q3], source_records=3, loaded_at=T1)
        may = store.graph_entry(G_MAY)
        june = store.graph_entry(G_JUNE)
        assert len(store.triples(G_MAY)) == 2 and len(store.triples(G_JUNE)) == 1
        assert may.loads == [
            {"at": T1.isoformat(), "inserted": 2, "source_records": 3}
        ]
        assert june.loads[0]["inserted"] == 1

    def test_no_event_recorded_when_nothing_is_new(self):
        store = store_with(Q1)
        store.load_quads([Q1], source_records=1, loaded_at=T2)
        assert len(store.graph_entry(G_MAY).loads) == 1
        assert store.graph_entry(G_MAY).loads[0]["at"] == T1.isoformat()


class TestReplaceGraph:
    def test_counts_inserted_and_removed(self):
        store = store_with(Q1, Q2, Q3)
        q4 = Quad(Triple(ex("d4"), ex("p"), Literal("z")), G_MAY)
        assert store.replace_graph(G_MAY, [Q1, q4], loaded_at=T2) == (1, 1)
        assert set(store) == {Q1, q4, Q3}
        assert len(store.triples(G_MAY)) == 2
        assert store.graph_entry(G_MAY).loads[-1] == {
            "at": T2.isoformat(),
            "inserted": 1,
            "removed": 1,
            "source_records": 0,
        }

    def test_other_graphs_are_untouched(self):
        store = store_with(Q1, Q2, Q3)
        june_loads = list(store.graph_entry(G_JUNE).loads)
        store.replace_graph(G_MAY, [Q1], loaded_at=T2)
        assert Q3 in store
        assert store.graph_entry(G_JUNE).loads == june_loads

    def test_removal_only_records_an_event(self):
        store = store_with(Q1, Q2)
        assert store.replace_graph(G_MAY, [Q2], source_records=1, loaded_at=T2) == (0, 1)
        assert store.graph_entry(G_MAY).loads[-1] == {
            "at": T2.isoformat(),
            "inserted": 0,
            "removed": 1,
            "source_records": 1,
        }

    def test_insert_only_event_has_no_removed_key(self):
        store = store_with(Q1)
        assert store.replace_graph(G_MAY, [Q1, Q2], loaded_at=T2) == (1, 0)
        assert "removed" not in store.graph_entry(G_MAY).loads[-1]

    def test_replay_is_a_no_op(self):
        store = store_with(Q1, Q2, Q3)
        view = store.triples(G_MAY)
        assert store.replace_graph(G_MAY, [Q2, Q1], loaded_at=T2) == (0, 0)
        assert len(store.graph_entry(G_MAY).loads) == 1
        assert store.triples(G_MAY) is view

    def test_views_follow_a_removal(self):
        store = store_with(Q1, Q2)
        before = store.triples()
        store.replace_graph(G_MAY, [Q1], loaded_at=T2)
        assert Q2.triple in before
        assert Q2.triple not in store.triples()
        assert list(store.match(Q2.triple.subject)) == []

    def test_quads_of_another_graph_rejected(self):
        with pytest.raises(ValueError, match="replacement of"):
            Store().replace_graph(G_MAY, [Q3])

    def test_emptied_graph_keeps_its_entry(self, tmp_path):
        store = store_with(Q1, Q3)
        assert store.replace_graph(G_MAY, [], loaded_at=T2) == (0, 1)
        assert store.graphs() == {G_JUNE}
        store.persist(tmp_path)
        loaded = Store.load(tmp_path)
        assert loaded == store
        assert len(loaded.triples(G_MAY)) == 0
        assert loaded.graph_entry(G_MAY).filename == "2014-05.nq"
        assert (tmp_path / "graphs" / "2014-05.nq").read_bytes() == b""


_graph_iris = st.sampled_from([G_MAY, G_JUNE, G_DAY])
_triples = st.builds(
    Triple,
    st.sampled_from(oracle.SUBJECTS),
    st.sampled_from(oracle.PREDICATES),
    st.sampled_from(oracle.OBJECTS),
)
_quad_sets = st.sets(st.builds(Quad, _triples, _graph_iris), max_size=60)
_opt = lambda pool: st.none() | st.sampled_from(pool)


class TestMatch:
    def test_all_wildcards_yield_every_quad(self):
        store = store_with(Q1, Q2, Q3)
        assert set(store.match()) == {Q1, Q2, Q3}

    def test_fully_bound_present(self):
        store = store_with(Q1, Q2, Q3)
        t = Q2.triple
        assert list(store.match(t.subject, t.predicate, t.object, G_MAY)) == [Q2]

    def test_fully_bound_absent(self):
        store = store_with(Q1)
        assert list(store.match(ex("nope"), None, None, None)) == []

    def test_graph_scoping(self):
        store = store_with(Q1, Q2, Q3)
        assert set(store.match(graph=G_MAY)) == {Q1, Q2}

    @given(
        _quad_sets,
        _opt(oracle.SUBJECTS),
        _opt(oracle.PREDICATES),
        _opt(oracle.OBJECTS),
        st.none() | _graph_iris,
    )
    def test_match_equals_linear_scan(self, quads, s, p, o, g):
        store = Store()
        store.load_quads(quads, loaded_at=T1)
        got = list(store.match(s, p, o, g))
        assert len(got) == len(set(got)), "a quad was yielded twice"
        want = {
            q
            for q in quads
            if (s is None or q.triple.subject == s)
            and (p is None or q.triple.predicate == p)
            and (o is None or q.triple.object == o)
            and (g is None or q.graph == g)
        }
        assert set(got) == want

    @pytest.mark.parametrize(
        "bound", list(itertools.product([False, True], repeat=4)), ids=str
    )
    @given(
        _quad_sets,
        _quad_sets,
        st.sampled_from(oracle.SUBJECTS),
        st.sampled_from(oracle.PREDICATES),
        st.sampled_from(oracle.OBJECTS),
        _graph_iris,
    )
    @settings(max_examples=25)
    def test_match_equals_brute_force_filter(self, bound, first, second, s, p, o, g):
        # Two loads, with lookups between them, so that views built
        # after the first load are dropped by the second.
        store = Store()
        store.load_quads(first, loaded_at=T1)
        list(store.match(s, p, o, g))
        store.load_quads(second, loaded_at=T2)
        s, p, o, g = (term if on else None for term, on in zip((s, p, o, g), bound))
        want = {
            q
            for q in iter(store)
            if (s is None or q.triple.subject == s)
            and (p is None or q.triple.predicate == p)
            and (o is None or q.triple.object == o)
            and (g is None or q.graph == g)
        }
        got = list(store.match(s, p, o, g))
        assert len(got) == len(set(got)), "a quad was yielded twice"
        assert set(got) == want


class TestTriplesView:
    @pytest.mark.parametrize("graph", [None, G_MAY])
    def test_view_is_built_once(self, graph):
        store = store_with(Q1, Q2, Q3)
        assert store.triples(graph) is store.triples(graph)

    @pytest.mark.parametrize("graph", [None, G_MAY])
    def test_inserting_load_yields_a_new_view(self, graph):
        store = store_with(Q1, Q3)
        before = store.triples(graph)
        store.load_quads([Q2], loaded_at=T2)
        after = store.triples(graph)
        assert Q2.triple not in before
        assert Q2.triple in after

    @pytest.mark.parametrize("graph", [None, G_MAY])
    def test_replay_keeps_the_view(self, graph):
        store = store_with(Q1, Q2, Q3)
        before = store.triples(graph)
        assert store.load_quads([Q1, Q2, Q3], loaded_at=T2) == 0
        assert store.triples(graph) is before

    def test_a_load_keeps_the_views_of_other_graphs(self):
        store = store_with(Q1, Q2)
        may = store.triples(G_MAY)
        assert list(may.match(Q1.triple.subject)) == [Q1.triple]
        index = may._maps
        assert store.load_quads([Q3], loaded_at=T2) == 1
        assert store.triples(G_MAY) is may
        assert may._maps is index

    def test_union_deduplicates_across_graphs(self):
        shared = Triple(ex("d"), ex("p"), Literal("x"))
        store = store_with(Quad(shared, G_MAY), Quad(shared, G_JUNE))
        assert store.triples() == Graph([shared])
        assert store.triples(G_MAY) == Graph([shared])

    def test_unknown_graph_is_empty(self):
        assert store_with(Q1).triples(G_JUNE) == Graph()


class _Walked(frozenset):
    """A triple set that logs its size each time it is walked."""

    log: list[int]

    def __iter__(self):
        self.log.append(len(self))
        return super().__iter__()


class TestLookupsUseTheIndex:
    """Bound lookups read the views' indexes: once the union view and
    its ordered index are built, SELECT, ASK and the shape checks walk
    no triple set.  Counted, not timed."""

    @pytest.fixture
    def walks(self, monkeypatch) -> list[int]:
        log: list[int] = []
        init = Graph.__init__

        def logging_init(graph, triples=()):
            init(graph, triples)
            graph._triples = _Walked(graph._triples)
            graph._triples.log = log

        monkeypatch.setattr(Graph, "__init__", logging_init)
        return log

    @pytest.fixture
    def golden_store(self, walks) -> Store:
        text = (GOLDENS / "integrated_golden.nt").read_text(encoding="utf-8")
        store = store_with(*(Quad(t, G_MAY) for t in parse_ntriples(text)))
        store.triples()  # built once per snapshot, as the endpoint does
        walks.clear()
        return store

    def test_the_ordered_index_is_built_by_one_walk(self, golden_store, walks):
        execute_ask(golden_store, parse_query("ASK { ?s ?p ?o }"))
        assert walks == [len(golden_store)]
        execute_ask(golden_store, parse_query("ASK { ?s ?p ?o }"))
        assert walks == [len(golden_store)]

    def test_bound_subject_select(self, golden_store, walks):
        golden_store.triples().ordered()
        subject = next(iter(golden_store)).triple.subject
        walks.clear()  # iterating the store walks its graph
        query = parse_query(f"SELECT ?p ?o WHERE {{ <{subject.value}> ?p ?o }}")
        assert execute_select(golden_store, query).rows
        assert walks == []

    def test_validate_shapes(self, golden_store, walks):
        graph = golden_store.triples()
        shapes = load_shapes()
        walks.clear()  # loading the shapes walks the vocabulary graph
        assert all(graph.subjects_of_type(shape.target_class) for shape in shapes)
        validate_shapes(graph, shapes)
        assert walks == []

    def test_a_wildcard_pattern_reads_a_permutation(self, golden_store, walks):
        golden_store.triples().ordered()
        walks.clear()
        result = execute_select(golden_store, parse_query("SELECT * WHERE { ?s ?p ?o }"))
        assert len(result.rows) == len(golden_store)
        assert walks == []


class TestStats:
    def test_empty_store(self):
        s = Store().stats()
        assert s.total_triples == 0
        assert s.per_class == {}
        assert s.per_predicate == {}
        assert s.graph_count == 0

    def test_hand_counted_store(self):
        rdf_type = Iri(RDF_TYPE)
        cls = ex("Dataset")
        store = store_with(
            Quad(Triple(ex("d1"), rdf_type, cls), G_MAY),
            Quad(Triple(ex("d2"), rdf_type, cls), G_MAY),
            Quad(Triple(ex("d1"), ex("p"), Literal("x")), G_MAY),
            Quad(Triple(ex("d1"), ex("p"), Literal("y")), G_JUNE),
        )
        s = store.stats()
        assert s.total_triples == 4
        assert s.per_class == {cls: 2}
        assert s.per_predicate == {rdf_type: 2, ex("p"): 2}
        assert s.graph_count == 2

    def test_per_class_counts_subjects_not_triples(self):
        # The same subject typed in two graphs is still one instance.
        typing = Triple(ex("d1"), Iri(RDF_TYPE), ex("Dataset"))
        store = store_with(Quad(typing, G_MAY), Quad(typing, G_JUNE))
        assert store.stats().per_class == {ex("Dataset"): 1}
        assert store.stats().total_triples == 2

    def test_same_triple_in_two_graphs_counts_twice(self):
        shared = Triple(ex("d"), ex("p"), Literal("x"))
        store = store_with(Quad(shared, G_MAY), Quad(shared, G_JUNE))
        assert store.stats().total_triples == 2

    def test_json_dict_is_sorted_and_plain(self):
        store = store_with(Q1, Q3)
        doc = store.stats().to_json_dict()
        assert list(doc["per_predicate"]) == sorted(doc["per_predicate"])
        assert all(isinstance(k, str) for k in doc["per_predicate"])


class TestGraphFilenames:
    def test_month_graph(self):
        assert graph_filename(G_MAY) == "2014-05.nq"

    def test_day_graph(self):
        assert graph_filename(G_DAY) == "2014-05-17.nq"

    def test_non_date_graph_falls_back_to_encoding(self):
        name = graph_filename(Iri("https://x.example/other/thing"))
        assert name.endswith(".nq")
        assert "/" not in name


def _stamps(directory: Path) -> dict[Path, tuple[int, int]]:
    return {
        p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.rglob("*") if p.is_file()
    }


def _backdated(directory: Path) -> dict[Path, tuple[int, int]]:
    """Set every file's mtime to the epoch, so that a rewrite in place
    shows as well as a rename; returns the stamps."""
    for p in directory.rglob("*"):
        if p.is_file():
            os.utime(p, ns=(0, 0))
    return _stamps(directory)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        store = store_with(Q1, Q2, Q3)
        store.persist(tmp_path)
        loaded = Store.load(tmp_path)
        assert loaded == store
        assert loaded.graphs() == {G_MAY, G_JUNE}
        assert loaded.graph_entry(G_MAY).loads == store.graph_entry(G_MAY).loads

    def test_load_on_empty_directory(self, tmp_path):
        store = Store.load(tmp_path)
        assert len(store) == 0

    def test_persist_twice_is_byte_identical(self, tmp_path):
        store = store_with(Q1, Q2, Q3)
        store.persist(tmp_path)
        before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        store.persist(tmp_path)
        after = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert before == after

    def test_persist_writes_only_changed_graphs(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        june = tmp_path / "graphs" / "2014-06.nq"
        before = _backdated(tmp_path)
        store = Store.load(tmp_path)
        store.load_quads([Q2], loaded_at=T2)
        store.persist(tmp_path)
        after = _stamps(tmp_path)
        assert after[june] == before[june]
        assert after[tmp_path / "graphs" / "2014-05.nq"] != before[tmp_path / "graphs" / "2014-05.nq"]
        assert Store.load(tmp_path) == store_with(Q1, Q2, Q3)

    def test_unchanged_store_persists_nothing(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        before = _backdated(tmp_path)
        Store.load(tmp_path).persist(tmp_path)
        store = Store.load(tmp_path)
        store.load_quads([Q1], loaded_at=T2)
        store.persist(tmp_path)
        assert _stamps(tmp_path) == before

    def test_loaded_store_persists_whole_elsewhere(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path / "a")
        Store.load(tmp_path / "a").persist(tmp_path / "b")
        names = lambda d: sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())
        assert names(tmp_path / "b") == names(tmp_path / "a")
        assert Store.load(tmp_path / "b") == store_with(Q1, Q3)

    def test_persisted_layout(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "graphs" / "2014-05.nq").exists()
        assert (tmp_path / "graphs" / "2014-06.nq").exists()

    def test_graph_files_are_canonical_nquads(self, tmp_path):
        store_with(Q1, Q2).persist(tmp_path)
        text = (tmp_path / "graphs" / "2014-05.nq").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert all(line.endswith(f"<{G_MAY.value}> .") for line in lines)

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptManifest, match="unreadable"):
            Store.load(tmp_path)

    def test_missing_graph_file(self, tmp_path):
        store_with(Q1).persist(tmp_path)
        (tmp_path / "graphs" / "2014-05.nq").unlink()
        with pytest.raises(CorruptManifest, match="missing graph file"):
            Store.load(tmp_path)

    def test_quad_count_mismatch(self, tmp_path):
        store_with(Q1).persist(tmp_path)
        path = tmp_path / "graphs" / "2014-05.nq"
        extra = f"<{EX}d9> <{EX}p> <{EX}d8> <{G_MAY.value}> .\n"
        path.write_text(path.read_text(encoding="utf-8") + extra, encoding="utf-8")
        with pytest.raises(CorruptManifest, match="manifest says"):
            Store.load(tmp_path)

    def test_quad_in_wrong_graph_file(self, tmp_path):
        store_with(Q1).persist(tmp_path)
        path = tmp_path / "graphs" / "2014-05.nq"
        stray = f"<{EX}d9> <{EX}p> <{EX}d8> <{G_JUNE.value}> .\n"
        path.write_text(stray, encoding="utf-8")
        with pytest.raises(CorruptManifest, match="expected"):
            Store.load(tmp_path)

    @pytest.mark.parametrize(
        "graph, entry, message",
        [
            ("2014-05", '{"file": "2014-05.nq", "quads": 0, "loads": []}', "not an absolute IRI"),
            (G_MAY.value, '{"file": 5, "quads": 0, "loads": []}', "malformed"),
            (G_MAY.value, '{"file": "2014-05.nq", "quads": 0, "loads": 1}', "malformed"),
        ],
        ids=["graph-not-an-iri", "file-not-a-string", "loads-not-a-list"],
    )
    def test_malformed_manifest_entry(self, tmp_path, graph, entry, message):
        doc = f'{{"graphs": {{"{graph}": {entry}}}}}'
        (tmp_path / "manifest.json").write_text(doc, encoding="utf-8")
        with pytest.raises(CorruptManifest, match=message):
            Store.load(tmp_path)

    def test_graph_file_not_utf8(self, tmp_path):
        store_with(Q1, Q2).persist(tmp_path)
        with open(tmp_path / "graphs" / "2014-05.nq", "ab") as f:
            f.write(b"\xff")
        with pytest.raises(CorruptManifest, match=r"^2014-05\.nq is not UTF-8"):
            Store.load(tmp_path)

    def test_graph_file_syntax_error_keeps_its_position(self, tmp_path):
        store_with(Q1, Q2).persist(tmp_path)
        path = tmp_path / "graphs" / "2014-05.nq"
        with open(path, "a", encoding="utf-8") as f:
            f.write("<a> <b> .\n")
        with pytest.raises(CorruptManifest) as info:
            Store.load(tmp_path)
        assert str(info.value) == "2014-05.nq: not an absolute IRI: 'a' (line 3, column 4)"

    def test_manifest_count_off_by_one(self, tmp_path):
        store_with(Q1, Q2).persist(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text(encoding="utf-8").replace('"quads": 2', '"quads": 3'))
        with pytest.raises(CorruptManifest, match="holds 2 quads, manifest says 3"):
            Store.load(tmp_path)


def _strip_digests(directory: Path) -> None:
    """Remove every ``sha256`` key, as in a manifest persisted before
    digests were recorded."""
    path = directory / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for entry in doc["graphs"].values():
        del entry["sha256"]
    path.write_text(json.dumps(doc), encoding="utf-8")


def _read_certified(store: Store, graph: Iri) -> bytes | None:
    certified = store.open_certified(graph)
    if certified is None:
        return None
    f, size = certified
    with f:
        data = f.read()
    assert len(data) == size
    return data


class TestDigests:
    def test_persist_records_the_digest_of_each_file(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        store = Store.load(tmp_path)
        store.load_quads([Q2], loaded_at=T2)
        store.persist(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        for entry in doc["graphs"].values():
            data = (tmp_path / "graphs" / entry["file"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    def test_a_manifest_without_digests_loads_uncertified(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        _strip_digests(tmp_path)
        store = Store.load(tmp_path)
        assert store == store_with(Q1, Q3)
        assert _read_certified(store, G_MAY) is None
        assert _read_certified(store, G_JUNE) is None
        # A graph left alone keeps no digest; a rewritten one gains it.
        store.load_quads([Q2], loaded_at=T2)
        store.persist(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert "sha256" in doc["graphs"][G_MAY.value]
        assert "sha256" not in doc["graphs"][G_JUNE.value]
        reloaded = Store.load(tmp_path)
        assert _read_certified(reloaded, G_MAY) is not None
        assert _read_certified(reloaded, G_JUNE) is None

    def test_an_edit_that_keeps_the_count_is_corrupt(self, tmp_path):
        store_with(Q1, Q2).persist(tmp_path)
        path = tmp_path / "graphs" / "2014-05.nq"
        path.write_text(path.read_text(encoding="utf-8").replace('"x"', '"z"'), encoding="utf-8")
        with pytest.raises(CorruptManifest, match=r"^2014-05\.nq does not match its sha256"):
            Store.load(tmp_path)

    def test_a_malformed_digest_is_a_malformed_entry(self, tmp_path):
        store_with(Q1).persist(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["graphs"][G_MAY.value]["sha256"] = 5
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptManifest, match="malformed"):
            Store.load(tmp_path)

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_a_torn_commit_never_loads_as_a_mix(self, tmp_path, monkeypatch, fail_at):
        # Both graphs change with their quad counts kept, so only the
        # digests tell the new files from the old ones.
        old = store_with(Q1, Q3)
        old.persist(tmp_path)
        store = Store.load(tmp_path)
        store.replace_graph(G_MAY, [Q2], loaded_at=T2)
        store.replace_graph(G_JUNE, [Quad(Triple(ex("d4"), ex("q"), Literal("y")), G_JUNE)])
        new = Store()
        new.load_quads(store, loaded_at=T2)
        replaces: list[Path] = []
        replace = os.replace

        def failing_replace(src, dst):
            replaces.append(Path(dst))
            if len(replaces) == fail_at:
                raise OSError(f"crash at rename {fail_at}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="crash at rename"):
            store.persist(tmp_path)
        monkeypatch.undo()
        # Two graph files, then the manifest.
        assert len(replaces) == fail_at
        try:
            loaded = Store.load(tmp_path)
        except CorruptManifest as exc:
            assert str(exc).startswith(("2014-05.nq ", "2014-06.nq "))
        else:
            assert loaded in (old, new)
        if fail_at > 1:  # a graph file is new, the manifest old
            with pytest.raises(CorruptManifest, match="does not match its sha256"):
                Store.load(tmp_path)
        store.persist(tmp_path)
        assert Store.load(tmp_path) == new

    def test_a_changed_graph_has_no_certified_file(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        store = Store.load(tmp_path)
        for graph, name in ((G_MAY, "2014-05.nq"), (G_JUNE, "2014-06.nq")):
            assert _read_certified(store, graph) == (tmp_path / "graphs" / name).read_bytes()
        store.replace_graph(G_MAY, [Q2], loaded_at=T2)
        assert _read_certified(store, G_MAY) is None
        assert _read_certified(store, G_JUNE) is not None
        store.load_quads([Quad(Q1.triple, G_JUNE)], loaded_at=T2)
        assert _read_certified(store, G_JUNE) is None

    def test_a_replay_keeps_the_certified_file(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        store = Store.load(tmp_path)
        store.load_quads([Q1], loaded_at=T2)
        store.replace_graph(G_JUNE, [Q3], loaded_at=T2)
        assert _read_certified(store, G_MAY) is not None
        assert _read_certified(store, G_JUNE) is not None

    def test_a_file_replaced_on_disk_is_no_longer_certified(self, tmp_path):
        store_with(Q1, Q3).persist(tmp_path)
        store = Store.load(tmp_path)
        # Same size, other content, a new file renamed into place.
        writer = Store.load(tmp_path)
        writer.replace_graph(G_MAY, [Quad(Triple(ex("d1"), ex("p"), Literal("z")), G_MAY)])
        writer.persist(tmp_path)
        assert _read_certified(store, G_MAY) is None
        assert _read_certified(store, G_JUNE) is not None


class TestIdempotenceProperty:
    @given(_quad_sets, _quad_sets)
    def test_reloading_any_batch_is_a_no_op(self, first, second):
        once = Store()
        once.load_quads(first, loaded_at=T1)
        once.load_quads(second, loaded_at=T1)
        twice = Store()
        twice.load_quads(first, loaded_at=T1)
        twice.load_quads(second, loaded_at=T1)
        twice.load_quads(second, loaded_at=T2)
        assert once == twice
        assert once.stats() == twice.stats()

"""JSON-LD subset conversion tests."""

from __future__ import annotations

from datetime import date, datetime
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgforge.jsonld import (
    JsonLdContext,
    JsonLdError,
    RawRecord,
    _path_label,
    load_default_context,
    parse_payload,
    relabel_blank_nodes,
    to_rdf,
)
from kgforge.rdf import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
    serialize_ntriples,
)

SCHEMA = "http://schema.org/"


def record(payload) -> RawRecord:
    return RawRecord(
        source_id="10.14272/TEST",
        submission_date=date(2014, 5, 17),
        payload=payload,
        fetched_at=datetime(2025, 7, 1, 12, 0, 0),
    )


def convert(payload):
    return to_rdf(record(payload), load_default_context())


class TestBasics:
    def test_id_type_and_property(self):
        g = convert({"@id": "http://x/d1", "@type": "Dataset", "name": "NMR run"})
        assert len(g) == 2
        subject = Iri("http://x/d1")
        assert Triple(subject, Iri(RDF_TYPE), Iri(SCHEMA + "Dataset")) in g
        assert Triple(subject, Iri(SCHEMA + "name"), Literal("NMR run")) in g

    def test_empty_object(self):
        assert len(convert({})) == 0

    def test_dataset_record_shaped_like_the_transformation_input(self):
        # One type plus ten single-valued properties: exactly 11 triples.
        payload = {
            "@id": "http://x/d1",
            "@type": "Dataset",
            "creator": {"@id": "https://orcid.org/0000-0001-0000-0001"},
            "publisher": {"@id": "http://x/chemotion"},
            "description": "1H NMR of something",
            "identifier": "CRD-1",
            "license": {"@id": "https://creativecommons.org/licenses/by-sa/4.0/"},
            "measurementTechnique": "1H NMR",
            "name": "Spectrum 1",
            "url": "http://x/d1.html",
            "includedInDataCatalog": {"@id": "http://x/catalog"},
            "isPartOf": {"@id": "http://x/study/1"},
        }
        g = convert(payload)
        assert len(g) == 11
        typed = g.subjects_of_type(Iri(SCHEMA + "Dataset"))
        assert typed == {Iri("http://x/d1")}

    def test_array_payload(self):
        g = convert([{"@id": "http://x/a", "name": "a"}, {"@id": "http://x/b", "name": "b"}])
        assert len(g) == 2

    def test_scalar_array_fans_out(self):
        g = convert({"@id": "http://x/d", "name": ["a", "b"]})
        assert len(g) == 2

    def test_null_is_skipped(self):
        assert len(convert({"@id": "http://x/d", "name": None})) == 0

    def test_non_object_payload_rejected(self):
        with pytest.raises(JsonLdError, match="object"):
            convert("just a string")


class TestBlankNodes:
    def test_array_element_label(self):
        g = convert({"@id": "http://x/d", "creator": [{"name": "Ada"}]})
        assert Triple(
            Iri("http://x/d"), Iri(SCHEMA + "creator"), BlankNode("b_creator_0")
        ) in g

    def test_single_object_label(self):
        g = convert({"@id": "http://x/d", "creator": {"name": "Ada"}})
        assert Triple(
            Iri("http://x/d"), Iri(SCHEMA + "creator"), BlankNode("b_creator")
        ) in g

    def test_root_without_id(self):
        g = convert({"name": "anonymous"})
        assert {t.subject for t in g} == {BlankNode("b_root")}

    @pytest.mark.parametrize(
        "payload",
        [
            {"a_0": {"n": "x"}, "a": [{"n": "y"}]},
            {"x-y": {"n": "x"}, "xy": {"n": "y"}},
            {"": {"n": "x"}, "x": {"n": "y"}},
            {"root": {"n": "x"}, "n": "y"},
        ],
    )
    def test_two_objects_never_share_a_label(self, payload):
        g = to_rdf(record(payload), JsonLdContext(vocab="http://ex.org/"))
        name = Iri("http://ex.org/n")
        # Each object is one blank node with its own single name.
        named = [t.subject for t in g if t.predicate == name]
        assert len(named) == len(set(named)) == 2

    def test_explicit_blank_node_id(self):
        g = convert({"@id": "_:me", "name": "x"})
        assert {t.subject for t in g} == {BlankNode("me")}

    def test_explicit_label_never_takes_a_path_label(self):
        payload = {
            "@id": "http://x/d",
            "creator": {"n": "anon"},
            "publisher": {"@id": "_:b_creator", "n": "named"},
            "funder": [{"@id": "_:e_b_creator", "n": "escaped"}, {"@id": "_:me", "n": "me"}],
        }
        g = to_rdf(record(payload), JsonLdContext(vocab="http://ex.org/"))
        name = Iri("http://ex.org/n")
        named = {t.subject: t.object for t in g if t.predicate == name}
        assert len(named) == 4
        assert named[BlankNode("me")] == Literal("me")

    def test_relabel_prevents_accidental_merge(self):
        g1 = convert({"creator": {"name": "Ada"}})
        g2 = convert({"creator": {"name": "Grace"}})
        merged_raw = g1.union(g2)
        # Path labels collide by design ...
        assert len({t.subject for t in merged_raw if isinstance(t.subject, BlankNode)}) == 2
        # ... until each record's graph is scoped.
        merged = relabel_blank_nodes(g1, "rec1").union(relabel_blank_nodes(g2, "rec2"))
        blanks = {
            t.subject
            for t in merged
            if isinstance(t.subject, BlankNode)
        }
        assert len(blanks) == 4

    def test_relabel_deterministic_and_structure_preserving(self):
        g = convert({"creator": {"name": "Ada"}, "publisher": {"name": "Chemotion"}})
        once = relabel_blank_nodes(g, "scope")
        again = relabel_blank_nodes(g, "scope")
        assert once == again
        assert len(once) == len(g)
        assert {t.predicate for t in once} == {t.predicate for t in g}


class TestLiterals:
    def test_integer(self):
        g = convert({"@id": "http://x/d", "molecularWeight": 42})
        assert Literal("42", Iri(XSD_INTEGER)) in {t.object for t in g}

    def test_decimal_from_parsed_json(self):
        payload = parse_payload('{"@id": "http://x/d", "molecularWeight": 70.5}')
        g = convert(payload)
        assert Literal("70.5", Iri(XSD_DECIMAL)) in {t.object for t in g}

    def test_integral_decimal_becomes_integer(self):
        payload = parse_payload('{"@id": "http://x/d", "molecularWeight": 5.0}')
        g = convert(payload)
        assert Literal("5", Iri(XSD_INTEGER)) in {t.object for t in g}

    def test_boolean(self):
        g = convert({"@id": "http://x/d", "name": True})
        assert Literal("true", Iri(XSD_BOOLEAN)) in {t.object for t in g}

    def test_language_tagged_value_object(self):
        g = convert({"@id": "http://x/d", "name": {"@value": "Wasser", "@language": "de"}})
        obj = next(iter(g)).object
        assert isinstance(obj, Literal) and obj.language == "de"

    def test_typed_value_object(self):
        g = convert(
            {"@id": "http://x/d", "datePublished": {"@value": "2014-05-17", "@type": "xsd:date"}}
        )
        obj = next(iter(g)).object
        assert obj == Literal("2014-05-17", Iri("http://www.w3.org/2001/XMLSchema#date"))

    def test_language_needs_string_value(self):
        with pytest.raises(JsonLdError, match="@language"):
            convert({"@id": "http://x/d", "name": {"@value": 5, "@language": "en"}})

    @pytest.mark.parametrize("key", ["@type", "@language"])
    @pytest.mark.parametrize("bad", [5, None, True, ["en"], {"en": 1}], ids=repr)
    def test_value_object_keyword_that_is_not_a_string_is_an_error(self, key, bad):
        with pytest.raises(JsonLdError, match=key):
            convert({"@id": "http://x/d", "license": {"@value": "CC BY", key: bad}})

    def test_deep_nesting_is_an_error(self):
        payload = {"name": "leaf"}
        for _ in range(2000):
            payload = {"creator": payload}
        with pytest.raises(JsonLdError, match="nested too deeply"):
            convert(payload)

    @pytest.mark.parametrize("tag", ["en US", "", "en_US"])
    def test_malformed_language_tag_is_an_error(self, tag):
        with pytest.raises(ValueError, match="language tag"):
            convert({"@id": "http://x/d", "license": {"@value": "CC BY", "@language": tag}})


class TestRejections:
    @pytest.mark.parametrize("keyword", ["@reverse", "@graph"])
    def test_unsupported_node_keywords_named(self, keyword):
        with pytest.raises(JsonLdError, match=keyword):
            convert({"@id": "http://x/d", keyword: {"name": "x"}})

    def test_list_keyword_named(self):
        with pytest.raises(JsonLdError, match="@list"):
            convert({"@id": "http://x/d", "name": {"@list": ["a"]}})

    def test_unmapped_term_named(self):
        ctx = JsonLdContext(term_map={}, prefix_map={}, vocab=None)
        with pytest.raises(JsonLdError, match="volcano"):
            to_rdf(record({"volcano": "x"}), ctx)

    def test_vocab_catches_unmapped_terms(self):
        ctx = JsonLdContext(vocab="http://ex.org/")
        g = to_rdf(record({"volcano": "x"}), ctx)
        assert {t.predicate for t in g} == {Iri("http://ex.org/volcano")}

    def test_remote_context_rejected(self):
        with pytest.raises(JsonLdError, match="inline"):
            convert({"@context": "https://schema.org", "name": "x"})

    def test_nested_context_rejected(self):
        with pytest.raises(JsonLdError, match="nested @context"):
            convert({"@id": "http://x/d", "creator": {"@context": {}, "name": "x"}})

    def test_relative_id_rejected(self):
        with pytest.raises(JsonLdError, match="absolute"):
            convert({"@id": "d1", "name": "x"})

    def test_dict_term_definition_rejected(self):
        with pytest.raises(JsonLdError, match="name"):
            JsonLdContext.from_mapping({"name": {"@id": "http://x/name"}})

    def test_prefix_must_be_namespace_shaped(self):
        with pytest.raises(ValueError, match="ending in"):
            JsonLdContext(prefix_map={"ex": "http://ex.org/ns"})

    def test_empty_source_id_rejected(self):
        with pytest.raises(ValueError, match="source_id"):
            RawRecord("", date(2014, 5, 17), {}, datetime(2025, 7, 1))


class TestContextMerging:
    def test_inline_context_extends_default(self):
        g = convert(
            {
                "@context": {"ex": "http://ex.org/"},
                "@id": "http://x/d",
                "ex:temperature": 300,
                "name": "still mapped",
            }
        )
        assert Iri("http://ex.org/temperature") in {t.predicate for t in g}
        assert Iri(SCHEMA + "name") in {t.predicate for t in g}

    def test_compact_iri_term_values_expand(self):
        ctx = JsonLdContext.from_mapping(
            {"schema": "http://schema.org/", "label": "schema:name"}
        )
        assert ctx.expand_term("label") == Iri(SCHEMA + "name")


# A small recursive payload generator over the shipped context's terms;
# used only to exercise the purity invariant.
_terms = st.sampled_from(["name", "description", "identifier", "url"])
_scalars = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
)
_payloads = st.recursive(
    st.dictionaries(_terms, _scalars, max_size=4),
    lambda children: st.dictionaries(
        st.sampled_from(["creator", "publisher", "isPartOf"]),
        st.one_of(children, st.lists(children, max_size=3)),
        max_size=3,
    ),
    max_leaves=8,
)


class TestDeterminism:
    # Generating the recursive payloads can stall on a loaded host; the
    # examples and assertions are the same either way.
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(_payloads)
    def test_to_rdf_is_pure(self, payload):
        a = to_rdf(record(payload), load_default_context())
        b = to_rdf(record(payload), load_default_context())
        assert a == b
        assert serialize_ntriples(a) == serialize_ntriples(b)

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(_payloads, st.text(min_size=1, max_size=20))
    def test_relabel_is_pure(self, payload, scope):
        g = to_rdf(record(payload), load_default_context())
        assert relabel_blank_nodes(g, scope) == relabel_blank_nodes(g, scope)


_segments = st.one_of(
    st.sampled_from(["root", "0", "a", "a_0", "_", ""]),
    st.text(alphabet="a0_-é", max_size=4),
)


class TestPathLabels:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sets(st.lists(_segments, max_size=4).map(tuple), min_size=2, max_size=8))
    def test_distinct_paths_get_distinct_labels(self, paths):
        labels = {_path_label(path) for path in paths}
        assert len(labels) == len(paths)
        for label in labels:
            BlankNode(label)  # a valid label

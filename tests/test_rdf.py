import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgforge.rdf import (
    RDF_TYPE,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    ParseError,
    Quad,
    Triple,
    lang_literal,
    parse_nquads,
    parse_ntriples,
    parse_turtle_subset,
    serialize_nquads,
    serialize_ntriples,
    term_sort_key,
    triple_sort_key,
)
from kgforge.store import read_nquads

from . import oracle
from .strategies import graph_iris, graphs, quads, terms

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# Term construction invariants
# ---------------------------------------------------------------------------


class TestTerms:
    def test_relative_iri_rejected(self):
        with pytest.raises(ValueError):
            Iri("no-scheme/path")

    def test_iri_with_raw_space_rejected(self):
        with pytest.raises(ValueError):
            Iri("http://x/a b")

    @pytest.mark.parametrize(
        "bad",
        ["http://x/<", "http://x/{y}", "http://x/a\\b", "http://x/a\x00b", "http://x/a\x01b", "http://x/\x1f"],
    )
    def test_forbidden_iri_characters(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)

    def test_unicode_iri_allowed(self):
        assert Iri("http://x/café").value.endswith("café")

    def test_language_requires_langstring(self):
        with pytest.raises(ValueError):
            Literal("x", Iri(XSD_STRING), "en")

    @pytest.mark.parametrize("tag", ["", "en US", "en_US", "-en", "en-", "1en", "en--US", "é"])
    def test_language_tag_outside_the_reader_grammar_rejected(self, tag):
        with pytest.raises(ValueError, match="language tag"):
            lang_literal("x", tag)

    def test_langstring_requires_language(self):
        with pytest.raises(ValueError):
            Literal("x", Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"))

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            Triple(Literal("x"), Iri("http://x/p"), Literal("y"))  # type: ignore[arg-type]

    def test_blank_predicate_rejected(self):
        with pytest.raises(ValueError):
            Triple(Iri("http://x/s"), BlankNode("b"), Literal("y"))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Canonical term order
# ---------------------------------------------------------------------------


class TestTermOrder:
    def test_kind_order(self):
        assert term_sort_key(BlankNode("b0")) < term_sort_key(Iri("http://a"))
        assert term_sort_key(Iri("http://a")) < term_sort_key(Literal("a"))

    def test_reflexive_equal(self):
        t = Literal("x")
        assert term_sort_key(t) == term_sort_key(t)

    @given(terms, terms)
    def test_antisymmetric(self, a, b):
        # a <= b and b <= a only when a == b: the key never ties two terms.
        ka, kb = term_sort_key(a), term_sort_key(b)
        assert (ka <= kb and kb <= ka) == (a == b)

    @given(terms, terms, terms)
    def test_transitive(self, a, b, c):
        if term_sort_key(a) <= term_sort_key(b) <= term_sort_key(c):
            assert term_sort_key(a) <= term_sort_key(c)

    @given(st.lists(terms, max_size=100))
    def test_sort_idempotent_and_deterministic(self, ts):
        once = sorted(ts, key=term_sort_key)
        twice = sorted(once, key=term_sort_key)
        assert once == twice
        assert once == sorted(list(reversed(ts)), key=term_sort_key)


# ---------------------------------------------------------------------------
# N-Triples
# ---------------------------------------------------------------------------


class TestNTriples:
    def test_single_line(self):
        g = parse_ntriples('<http://a/s> <http://a/p> "x" .')
        assert len(g) == 1
        (t,) = list(g)
        assert t.object == Literal("x")

    def test_empty_input(self):
        assert parse_ntriples("") == Graph()

    def test_duplicate_lines_collapse(self):
        line = '<http://a/s> <http://a/p> "x" .\n'
        assert len(parse_ntriples(line * 2)) == 1

    def test_comments_and_blank_lines(self):
        text = "# header\n\n<http://a/s> <http://a/p> <http://a/o> .\n"
        assert len(parse_ntriples(text)) == 1

    def test_escapes_decoded(self):
        g = parse_ntriples('<http://a/s> <http://a/p> "a\\tb\\u00E9\\\\" .')
        (t,) = list(g)
        assert t.object.lexical == "a\tbé\\"

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_ntriples('<http://a/s> <http://a/p> "x" .\n<http://a/s> "bad')
        assert "line 2" in str(exc.value)

    def test_relative_iri_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples("<s> <http://a/p> <http://a/o> .")

    def test_unterminated_literal(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://a/s> <http://a/p> "x .')

    def test_control_characters_escaped_on_serialize(self):
        g = Graph([Triple(Iri("http://a/s"), Iri("http://a/p"), Literal("a\x01b"))])
        assert "\\u0001" in serialize_ntriples(g)

    def test_reverse_insertion_serializes_in_canonical_order(self):
        # Independent oracle: re-sort the emitted line set with a key computed
        # from scratch, without reusing the library's sort machinery.
        t1 = Triple(Iri("http://a/s"), Iri("http://a/p"), Literal("z"))
        t2 = Triple(BlankNode("b"), Iri("http://a/p"), Literal("a"))
        lines = serialize_ntriples(Graph([t1, t2])).splitlines()

        def independent_key(line):
            first = line.split(" ", 1)[0]
            kind = 0 if first.startswith("_:") else 1
            return (kind, first)

        assert lines == sorted(lines, key=independent_key)
        assert lines[0].startswith("_:b")

    @given(graphs)
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_ntriples(serialize_ntriples(g)) == g

    @given(graphs)
    @settings(max_examples=30)
    def test_canonical_form_is_deterministic(self, g):
        rebuilt = Graph(list(g))
        assert serialize_ntriples(g) == serialize_ntriples(rebuilt)


# ---------------------------------------------------------------------------
# N-Quads
# ---------------------------------------------------------------------------


class TestNQuads:
    def test_quad_with_graph(self):
        (q,) = parse_nquads('<http://a/s> <http://a/p> "x" <http://g/2014-05> .')
        assert q.graph == Iri("http://g/2014-05")

    def test_quad_without_graph(self):
        (q,) = parse_nquads('<http://a/s> <http://a/p> "x" .')
        assert q.graph is None

    def test_golden_round_trip(self):
        text = (GOLDENS / "three_graphs.nq").read_text()
        assert serialize_nquads(parse_nquads(text)) == text

    def test_iris_are_shared_within_one_parse_only(self):
        text = (
            '<http://a/s> <http://a/p> "x" <http://g/1> .\n'
            '<http://a/s> <http://a/p> "y"^^<http://a/p> <http://g/1> .\n'
        )
        a, b = parse_nquads(text)
        assert a.triple.subject is b.triple.subject
        assert a.triple.predicate is b.triple.predicate is b.triple.object.datatype
        assert a.graph is b.graph
        # The cache lives for one call, so a long-running process does not
        # accumulate every IRI it has ever parsed.
        again, _ = parse_nquads(text)
        assert again.triple.subject == a.triple.subject
        assert again.triple.subject is not a.triple.subject

    def test_equal_term_texts_are_one_object_per_parse(self):
        text = (
            '<http://a/s> <http://a/p> "x"@en <http://g/1> .\n'
            '<http://a/t> <http://a/p> "x"@en <http://g/1> .\n'
            "_:b <http://a/p> _:b <http://g/1> .\n"
        )
        a, b, c = parse_nquads(text)
        assert a.triple.object is b.triple.object
        assert c.triple.subject is c.triple.object

    @given(graphs, graph_iris)
    @settings(max_examples=40)
    def test_graph_form_writes_the_quad_form(self, g, graph):
        assert serialize_nquads(g, graph) == serialize_nquads([Quad(t, graph) for t in g])

    def test_literal_graph_term_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads('<http://a/s> <http://a/p> "x" "g" .')

    @given(st.lists(quads, max_size=25))
    @settings(max_examples=60)
    def test_round_trip(self, qs):
        assert set(parse_nquads(serialize_nquads(qs))) == set(qs)


# ---------------------------------------------------------------------------
# Any term the constructors accept
# ---------------------------------------------------------------------------


def _or(build, fallback):
    """*build* that gives *fallback* for arguments its checks reject."""

    def make(*args):
        try:
            return build(*args)
        except ValueError:
            return fallback

    return make


# Arbitrary text, plus text shaped like each term.  Hypothesis draws no
# lone surrogate: it has no UTF-8 form, and the record decoder and the
# escape reader reject it.
_text = st.text(max_size=12)
_tags = st.one_of(
    _text,
    st.text(alphabet="aZz09- _", max_size=8),
    st.from_regex(r"[a-z]{1,3}(-[a-zA-Z0-9]{1,3})*", fullmatch=True),
)
_any_iris = st.builds(
    _or(Iri, Iri("http://x/")),
    st.one_of(_text, st.builds(str.__add__, st.sampled_from(["http://x/", "urn:", "a+b.c-d:"]), _text)),
)
_any_bnodes = st.builds(_or(BlankNode, BlankNode("b")), _text)
_any_literals = st.one_of(
    st.builds(Literal, _text),
    st.builds(_or(Literal, Literal("")), _text, _any_iris),
    st.builds(_or(lang_literal, Literal("")), _text, _tags),
)


@given(
    st.lists(
        st.builds(
            Triple,
            st.one_of(_any_iris, _any_bnodes),
            _any_iris,
            st.one_of(_any_iris, _any_bnodes, _any_literals),
        ),
        max_size=12,
    ),
    _any_iris,
)
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_any_accepted_terms_round_trip_through_nquads(triples, graph):
    data = serialize_nquads(set(triples), graph).encode("utf-8")
    assert read_nquads(data) == [Quad(t, graph) for t in sorted(set(triples), key=triple_sort_key)]


# ---------------------------------------------------------------------------
# Turtle subset
# ---------------------------------------------------------------------------


class TestTurtleSubset:
    def test_a_keyword(self):
        g = parse_turtle_subset("@prefix s: <http://s/> . s:a a s:B .")
        (t,) = list(g)
        assert t.predicate == Iri(RDF_TYPE)

    def test_property_list_rejected(self):
        with pytest.raises(ParseError, match="blank node property list"):
            parse_turtle_subset("@prefix s: <http://s/> . s:a s:p [ s:q s:r ] .")

    def test_collection_rejected(self):
        with pytest.raises(ParseError, match="collection"):
            parse_turtle_subset("@prefix s: <http://s/> . s:a s:p (1 2) .")

    def test_unknown_prefix_named(self):
        with pytest.raises(ParseError, match="nope"):
            parse_turtle_subset("nope:a nope:b nope:c .")

    def test_matches_hand_expanded_twin(self):
        ttl = parse_turtle_subset((GOLDENS / "abbreviated.ttl").read_text())
        nt = parse_ntriples((GOLDENS / "abbreviated.nt").read_text())
        assert len(ttl) == 10
        assert ttl == nt

    def test_lang_and_typed_literals(self):
        g = parse_turtle_subset(
            '@prefix s: <http://s/> .\n'
            '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
            's:a s:p "hi"@en ; s:q "5"^^xsd:integer .'
        )
        objects = {t.object for t in g}
        assert lang_literal("hi", "en") in objects

    @given(graphs)
    @settings(max_examples=30)
    def test_ntriples_is_valid_turtle_subset(self, g):
        # N-Triples is a syntactic subset of the accepted Turtle grammar.
        assert parse_turtle_subset(serialize_ntriples(g)) == g


class TestGraph:
    def test_union_deduplicates(self):
        t = Triple(Iri("http://a/s"), Iri("http://a/p"), Literal("x"))
        assert len(Graph([t]).union(Graph([t]))) == 1

    def test_match_wildcards(self):
        g = parse_ntriples(
            '<http://a/s> <http://a/p> "x" .\n<http://a/s2> <http://a/p> "y" .'
        )
        assert len(list(g.match(predicate=Iri("http://a/p")))) == 2
        assert len(list(g.match(subject=Iri("http://a/s")))) == 1

    @pytest.mark.parametrize(
        "bound", list(itertools.product([False, True], repeat=3)), ids=str
    )
    @given(
        st.lists(
            st.builds(
                Triple,
                st.sampled_from(oracle.SUBJECTS),
                st.sampled_from(oracle.PREDICATES),
                st.sampled_from(oracle.OBJECTS),
            ),
            max_size=60,
        ),
        st.sampled_from(oracle.SUBJECTS),
        st.sampled_from(oracle.PREDICATES),
        st.sampled_from(oracle.OBJECTS),
    )
    @settings(max_examples=40)
    def test_match_equals_brute_force_filter(self, bound, triples, s, p, o):
        g = Graph(triples)
        s, p, o = (term if on else None for term, on in zip((s, p, o), bound))
        want = {
            t
            for t in iter(g)
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        }
        for _ in range(2):  # before and after the maps exist
            got = list(g.match(s, p, o))
            assert len(got) == len(set(got)), "a triple was yielded twice"
            assert set(got) == want

    def test_quad_graph_must_be_iri(self):
        t = Triple(Iri("http://a/s"), Iri("http://a/p"), Literal("x"))
        with pytest.raises(ValueError):
            Quad(t, "not-an-iri")  # type: ignore[arg-type]

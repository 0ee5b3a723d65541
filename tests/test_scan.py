"""Scanner tests: exact error positions across every parser that shares
the lexer, N-Quads round trips through escape-heavy terms, and every
term read back the same by the four grammars that share the term reader.

Each malformed term is embedded on line 2 of a document in each of the
four grammars; the message, line and column are pinned so that any change
to how the lexer consumes IRIs and strings must leave them untouched.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgforge import rdf
from kgforge._scan import ScanError
from kgforge.endpoint import QueryParseError, parse_query
from kgforge.mapping import RuleParseError, parse_rule
from kgforge.rdf import (
    RDF_LANGSTRING,
    XSD,
    BlankNode,
    Iri,
    Literal,
    ParseError,
    Quad,
    Triple,
    format_term,
    lang_literal,
    parse_nquads,
    parse_ntriples,
    parse_turtle_subset,
    quad_sort_key,
    serialize_nquads,
)

from .strategies import graph_iris, iris, subjects, terms

#: Grammar -> (document with an ``{obj}`` slot on line 2, parser, error type).
DOCUMENTS = {
    "nquads": (
        '<http://ex.org/s> <http://ex.org/p> "ok" .\n'
        "<http://ex.org/s> <http://ex.org/p> {obj} .\n",
        parse_nquads,
        ParseError,
    ),
    "turtle": (
        "@prefix ex: <http://ex.org/> .\nex:s ex:p {obj} .\n",
        parse_turtle_subset,
        ParseError,
    ),
    "rule": (
        "CONSTRUCT { ?s <http://ex.org/p> ?o }\nWHERE { ?s <http://ex.org/q> {obj} }",
        parse_rule,
        RuleParseError,
    ),
    "query": (
        "SELECT ?s\nWHERE { ?s <http://ex.org/p> {obj} }",
        parse_query,
        QueryParseError,
    ),
}

#: Case -> (malformed object term, whether the document ends right after it).
TERMS = {
    "illegal-iri-char": ("<http://ex.org/a b>", False),
    "unterminated-iri": ("<http://ex.org/abc", True),
    "bad-u-escape-iri": (r"<http://ex.org/\u00ZZ>", False),
    "bad-u-escape-string": (r'"caf\u00e"', False),
    "unknown-string-escape": (r'"a\qb"', False),
    "newline-in-string": ('"abc\ndef"', False),
    "control-in-iri": ("<http://ex.org/a\x01b>", False),
    "surrogate-escape": (r'"a\uD800b"', False),
    "out-of-range-escape": (r'"\U00110000"', False),
}

# Lexer errors inside an IRI reach the caller as raised: the term
# readers wrap only the ``Iri(...)`` construction, so the position
# suffix appears once.
PINS = [
    ("illegal-iri-char", "nquads", "illegal character ' ' in IRI (line 2, column 53)", 2, 53),
    ("illegal-iri-char", "turtle", "illegal character ' ' in IRI (line 2, column 27)", 2, 27),
    ("illegal-iri-char", "rule", "illegal character ' ' in IRI (line 2, column 46)", 2, 46),
    ("illegal-iri-char", "query", "illegal character ' ' in IRI (line 2, column 46)", 2, 46),
    ("unterminated-iri", "nquads", "unterminated IRI (line 2, column 55)", 2, 55),
    ("unterminated-iri", "turtle", "unterminated IRI (line 2, column 29)", 2, 29),
    ("unterminated-iri", "rule", "unterminated IRI (line 2, column 48)", 2, 48),
    ("unterminated-iri", "query", "unterminated IRI (line 2, column 48)", 2, 48),
    ("bad-u-escape-iri", "nquads", "malformed \\u escape (line 2, column 52)", 2, 52),
    ("bad-u-escape-iri", "turtle", "malformed \\u escape (line 2, column 26)", 2, 26),
    ("bad-u-escape-iri", "rule", "malformed \\u escape (line 2, column 45)", 2, 45),
    ("bad-u-escape-iri", "query", "malformed \\u escape (line 2, column 45)", 2, 45),
    ("bad-u-escape-string", "nquads", "malformed \\u escape (line 2, column 41)", 2, 41),
    ("bad-u-escape-string", "turtle", "malformed \\u escape (line 2, column 15)", 2, 15),
    ("bad-u-escape-string", "rule", "malformed \\u escape (line 2, column 34)", 2, 34),
    ("bad-u-escape-string", "query", "malformed \\u escape (line 2, column 34)", 2, 34),
    ("unknown-string-escape", "nquads", "unknown escape sequence \\q (line 2, column 39)", 2, 39),
    ("unknown-string-escape", "turtle", "unknown escape sequence \\q (line 2, column 13)", 2, 13),
    ("unknown-string-escape", "rule", "unknown escape sequence \\q (line 2, column 32)", 2, 32),
    ("unknown-string-escape", "query", "unknown escape sequence \\q (line 2, column 32)", 2, 32),
    ("newline-in-string", "nquads", "unterminated string literal (line 2, column 41)", 2, 41),
    ("newline-in-string", "turtle", "unterminated string literal (line 2, column 15)", 2, 15),
    ("newline-in-string", "rule", "unterminated string literal (line 2, column 34)", 2, 34),
    ("newline-in-string", "query", "unterminated string literal (line 2, column 34)", 2, 34),
    ("control-in-iri", "nquads", "illegal character '\\x01' in IRI (line 2, column 53)", 2, 53),
    ("control-in-iri", "turtle", "illegal character '\\x01' in IRI (line 2, column 27)", 2, 27),
    ("control-in-iri", "rule", "illegal character '\\x01' in IRI (line 2, column 46)", 2, 46),
    ("control-in-iri", "query", "illegal character '\\x01' in IRI (line 2, column 46)", 2, 46),
    ("surrogate-escape", "nquads", "\\uD800 is not a Unicode scalar value (line 2, column 39)", 2, 39),
    ("surrogate-escape", "turtle", "\\uD800 is not a Unicode scalar value (line 2, column 13)", 2, 13),
    ("surrogate-escape", "rule", "\\uD800 is not a Unicode scalar value (line 2, column 32)", 2, 32),
    ("surrogate-escape", "query", "\\uD800 is not a Unicode scalar value (line 2, column 32)", 2, 32),
    ("out-of-range-escape", "nquads", "\\U00110000 is not a Unicode scalar value (line 2, column 38)", 2, 38),
    ("out-of-range-escape", "turtle", "\\U00110000 is not a Unicode scalar value (line 2, column 12)", 2, 12),
    ("out-of-range-escape", "rule", "\\U00110000 is not a Unicode scalar value (line 2, column 31)", 2, 31),
    ("out-of-range-escape", "query", "\\U00110000 is not a Unicode scalar value (line 2, column 31)", 2, 31),
]


def _document(case: str, grammar: str) -> str:
    template = DOCUMENTS[grammar][0]
    term, truncated = TERMS[case]
    if truncated:
        return template[: template.index("{obj}")] + term
    return template.replace("{obj}", term)


def test_every_case_is_pinned_for_every_grammar():
    assert {(case, grammar) for case, grammar, *_ in PINS} == {
        (case, grammar) for case in TERMS for grammar in DOCUMENTS
    }


@pytest.mark.parametrize(
    "case, grammar, message, line, column",
    PINS,
    ids=[f"{case}-{grammar}" for case, grammar, *_ in PINS],
)
def test_error_position_pinned(case, grammar, message, line, column):
    _, parse, error_type = DOCUMENTS[grammar]
    with pytest.raises(ScanError) as info:
        parse(_document(case, grammar))
    assert type(info.value) is error_type
    assert str(info.value) == message
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_nquads,
            '<http://a/s> <http://a/p> "x" .\n <http://a/s> <http://a/p> "x" "g" .',
            "graph term must be an IRI (line 2, column 1)",
        ),
        (
            parse_nquads,
            '<http://a/s> <http://a/p> "x" .\n"x" <http://a/p> "y" .',
            "triple subject cannot be a literal (line 2, column 1)",
        ),
        (
            parse_ntriples,
            '\n<http://a/s> "p" "y" .',
            "triple predicate must be an IRI (line 2, column 1)",
        ),
        (
            parse_nquads,
            "<http://a/s> <http://a/p> <nota> .",
            "not an absolute IRI: 'nota' (line 1, column 33)",
        ),
        (
            parse_turtle_subset,
            "@prefix ex: <foo> .",
            "not an absolute IRI: 'foo' (line 1, column 18)",
        ),
        (
            parse_turtle_subset,
            '@prefix ex: <http://ex.org/> .\nex:s ex:p "x"^^<int> .',
            "not an absolute IRI: 'int' (line 2, column 21)",
        ),
        (
            parse_turtle_subset,
            '@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n'
            'rdf:s rdf:p "x"^^rdf:langString .',
            "rdf:langString literal requires a language tag (line 2, column 32)",
        ),
    ],
)
def test_statement_error_position_pinned(parse, text, message):
    # Errors about a whole statement point at the start of its line; an
    # IRI that fails validation points just past the IRI.
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, error_type, text, message",
    [
        (
            parse_rule,
            RuleParseError,
            "CONSTRUCT { ?s <http://ex.org/p> ?o }\n"
            "WHERE { ?s <http://ex.org/q> ?x . BIND(<foo> AS ?o) }",
            "not an absolute IRI: 'foo' (line 2, column 45)",
        ),
        (
            parse_rule,
            RuleParseError,
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            'CONSTRUCT { ?s rdf:p ?o } WHERE { ?s rdf:q "x"^^rdf:langString }',
            "rdf:langString literal requires a language tag (line 2, column 63)",
        ),
        (
            parse_query,
            QueryParseError,
            'SELECT ?s\nWHERE { ?s <http://ex.org/p> "x"^^<%s> }' % RDF_LANGSTRING,
            "rdf:langString literal requires a language tag (line 2, column 90)",
        ),
    ],
    ids=["rule-bind-relative-iri", "rule-langstring-pname", "query-langstring"],
)
def test_term_validation_error_position_pinned(parse, error_type, text, message):
    # Rules and queries read terms through the Turtle reader, so a term
    # that fails validation is a positioned error of the parser's own
    # type (a 400 at the endpoint), not a bare ValueError.
    with pytest.raises(error_type) as info:
        parse(text)
    assert type(info.value) is error_type
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, iri",
    [
        (r"<http://ex.org/caf\u00E9>", "http://ex.org/café"),
        (r"<http://ex.org/\U0001F600x>", "http://ex.org/\U0001F600x"),
        ("<http://ex.org/a%20b>", "http://ex.org/a%20b"),
    ],
)
def test_iri_escapes_decode(text, iri):
    (triple,) = parse_ntriples(f"{text} {text} {text} .")
    assert triple.subject == triple.predicate == triple.object == Iri(iri)


def test_string_escapes_decode():
    (quad,) = parse_nquads(
        r'<http://ex.org/s> <http://ex.org/p> "a\tb\"c\\dé\U0001F600\n" .'
    )
    assert quad.triple.object == Literal('a\tb"c\\dé\U0001F600\n')


# ---------------------------------------------------------------------------
# Round trip through escapes
# ---------------------------------------------------------------------------

# Characters that the serializer escapes, plus non-ASCII that it does not.
_ESCAPY = "ab \"\\\n\r\t\x00\x01\x1f\x7fé \U0001F600"

_iris = st.builds(
    lambda s: Iri("http://ex.org/" + s),
    st.text(alphabet="az09/#%éé中\U0001F600", max_size=10),
)
_lexicals = st.text(alphabet=_ESCAPY, max_size=16)
_literals = st.one_of(
    st.builds(Literal, _lexicals),
    st.builds(Literal, _lexicals, st.sampled_from([Iri(XSD + "integer"), Iri(XSD + "string")])),
    st.builds(lang_literal, _lexicals, st.sampled_from(["en", "de-CH"])),
)
_subjects = st.one_of(_iris, st.builds(BlankNode, st.sampled_from(["b0", "x_1"])))
_quads = st.builds(
    Quad,
    st.builds(Triple, _subjects, _iris, st.one_of(_iris, _literals)),
    st.one_of(st.none(), _iris),
)


@given(st.lists(_quads, max_size=20))
@settings(max_examples=80)
def test_nquads_round_trip_through_escapes(qs):
    assert parse_nquads(serialize_nquads(qs)) == sorted(set(qs), key=quad_sort_key)


def test_lang_literal_datatype_survives_round_trip():
    q = Quad(Triple(Iri("http://ex.org/s"), Iri("http://ex.org/p"), lang_literal('"\\', "en")))
    (back,) = parse_nquads(serialize_nquads([q]))
    assert back == q and back.triple.object.datatype == Iri(RDF_LANGSTRING)


# ---------------------------------------------------------------------------
# One term grammar
# ---------------------------------------------------------------------------

_S, _P = "<http://t/s>", "<http://t/p>"


@given(terms)
@settings(max_examples=60)
def test_every_grammar_reads_a_term_back(t):
    text = format_term(t)
    (quad,) = parse_nquads(f"{_S} {_P} {text} .\n")
    (triple,) = parse_turtle_subset(f"{_S} {_P} {text} .\n")
    rule = parse_rule(f"CONSTRUCT {{ ?s {_P} {_S} }} WHERE {{ ?s {_P} {text} }}")
    query = parse_query(f"SELECT ?s WHERE {{ ?s {_P} {text} }}")
    assert quad.triple.object == t
    assert triple.object == t
    assert rule.where[0].object == t
    assert query.where[0].object == t


# ---------------------------------------------------------------------------
# N-Quads fast path against the per-character path
# ---------------------------------------------------------------------------

# Faulty term texts, which the per-character path must read or reject
# alone: relative IRIs, bad escapes, labels run into the final dot,
# unterminated or doubled literals, comments.
_MALFORMED_TEXTS = [
    "<rel>",
    "<http://ex.org/a b>",
    r"<http://ex.org/\u00ZZ>",
    r'"a\qb"',
    r'"caf\u00e"',
    '"abc',
    '"a" "b"',
    '"x"@',
    '"x"@en-',
    '"x"^^<int>',
    '"x"^^xsd:int',
    "_:b.",
    "_:",
    "_:b-c",
    "#c",
    ".",
    "",
    "\r",
]
# Most lines are laid out as the serializers write them; the rest vary
# the spacing, the ending, or one term.
_separators = st.sampled_from([" "] * 6 + ["", "  ", "\t", " \r "])
_endings = st.sampled_from([" ."] * 12 + [".", " . # c", " .\r", "", " . x", " .."])
_faults = st.one_of(
    st.sampled_from(_MALFORMED_TEXTS),
    st.builds(format_term, terms),
    st.builds(format_term, graph_iris),
)


@st.composite
def _statement_lines(draw) -> str:
    texts = [
        format_term(draw(subjects)),
        format_term(draw(iris)),
        format_term(draw(terms)),
        *([format_term(draw(graph_iris))] if draw(st.booleans()) else []),
    ]
    if draw(st.integers(0, 2)) == 0:
        texts[draw(st.integers(0, len(texts) - 1))] = draw(_faults)
    if draw(st.integers(0, 4)) == 0:
        texts.append(draw(_faults))
    line = texts[0]
    for text in texts[1:]:
        line += draw(_separators) + text
    return draw(st.sampled_from([""] * 6 + [" ", "\t"])) + line + draw(_endings)


def _parse_outcome(text: str):
    try:
        return parse_nquads(text)
    except ScanError as exc:
        return type(exc), str(exc), exc.line, exc.column


@given(st.lists(st.one_of(_statement_lines(), st.sampled_from(["", "# note", "  "])), max_size=4))
@settings(max_examples=150, deadline=None)
def test_nquads_fast_path_agrees_with_the_per_character_path(lines):
    # Lines are repeated so that term texts are also met in the cache.
    text = "\n".join(lines + lines)
    with patch.object(rdf, "_split_statement", lambda line, max_terms: None):
        expected = _parse_outcome(text)
    assert _parse_outcome(text) == expected

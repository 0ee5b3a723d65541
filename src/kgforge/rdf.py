"""RDF data model and serializations.

Terms, triples and quads are immutable values; graphs have set semantics
(re-inserting a triple never changes cardinality), which is what makes
repeated daily loads idempotent. Three text formats are supported:
N-Triples, N-Quads, and a Turtle subset rich enough for the vocabulary
and fixture files shipped with this project (``@prefix``, prefixed names,
``a``, ``;``/``,`` abbreviations; no collections, no ``[...]`` property
lists).

This module owns the term grammar: ``read_term`` reads the terms Turtle
and SPARQL share, for the Turtle subset here and for the mapping rules
and endpoint queries, which add only variables; ``read_literal`` is also
the literal reader of N-Quads, whose short ``_read_term`` dispatch reads
each distinct term text of a document once: a line laid out as the
serializers write it is split into term texts, and a text met before is
the same term object again.  Any other line is read character by
character, which also positions every syntax error.

Serialization is canonical: triples are sorted by a total order over
terms (blank node < IRI < literal, lexicographic within a kind), so equal
graphs always produce byte-identical output.  One line writer formats a
graph's distinct triples; canonical N-Quads sort by graph first, so a
dataset's text is its graphs' texts in graph order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._scan import LANGTAG, ScanError, Scanner

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_BOOLEAN = XSD + "boolean"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"
RDF_LANGSTRING = RDF_NS + "langString"

# Characters that must be percent-encoded rather than appear raw in an IRI:
# those the N-Quads IRIREF rule excludes, controls and space included.
_IRI_FORBIDDEN = set(map(chr, range(0x21))) | set('<>"{}|^`\\')


class ParseError(ScanError):
    """Syntax error in an RDF document."""


class _RdfScanner(Scanner):
    error_class = ParseError


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self):
        scheme_end = self.value.find(":")
        if scheme_end <= 0 or not self.value[0].isalpha():
            raise ValueError(f"not an absolute IRI: {self.value!r}")
        scheme = self.value[:scheme_end]
        if not (scheme.isalnum() or all(c.isalnum() or c in "+.-" for c in scheme)):
            raise ValueError(f"invalid IRI scheme in {self.value!r}")
        bad = _IRI_FORBIDDEN.intersection(self.value)
        if bad:
            raise ValueError(
                f"IRI contains characters that must be percent-encoded: {sorted(bad)!r}"
            )

    def __repr__(self):
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not self.label or not all(c.isalnum() or c == "_" for c in self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")

    def __repr__(self):
        return f"_:{self.label}"


# Shared by every plain and language-tagged literal.
_XSD_STRING_IRI = Iri(XSD_STRING)
_RDF_LANGSTRING_IRI = Iri(RDF_LANGSTRING)


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal with its verbatim lexical form.

    The language tag is given exactly when the datatype is
    ``rdf:langString``, and is one the N-Quads reader reads back; no
    value-space normalization is applied.
    """

    lexical: str
    datatype: Iri = _XSD_STRING_IRI
    language: str | None = None

    def __post_init__(self):
        if self.language is not None:
            if not LANGTAG.fullmatch(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
            if self.datatype.value != RDF_LANGSTRING:
                raise ValueError("language-tagged literal must have rdf:langString datatype")
        elif self.datatype.value == RDF_LANGSTRING:
            raise ValueError("rdf:langString literal requires a language tag")

    def __repr__(self):
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype.value == XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^<{self.datatype.value}>'


Term = Iri | BlankNode | Literal
Subject = Iri | BlankNode


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Subject
    predicate: Iri
    object: Term

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")


@dataclass(frozen=True, slots=True)
class Quad:
    triple: Triple
    graph: Iri | None = None

    def __post_init__(self):
        if self.graph is not None and not isinstance(self.graph, Iri):
            raise ValueError("quad graph must be an IRI")


def lang_literal(lexical: str, language: str) -> Literal:
    return Literal(lexical, _RDF_LANGSTRING_IRI, language)


# ---------------------------------------------------------------------------
# Canonical term order
# ---------------------------------------------------------------------------

_KIND_RANK = {BlankNode: 0, Iri: 1, Literal: 2}


def term_sort_key(t: Term) -> tuple:
    """Sort key realizing the total order: blank node < IRI < literal,
    lexicographic within a kind."""
    if isinstance(t, BlankNode):
        return (0, t.label)
    if isinstance(t, Iri):
        return (1, t.value)
    return (2, t.lexical, t.datatype.value, t.language or "")


def triple_sort_key(t: Triple) -> tuple:
    """The keys of subject, predicate and object, flattened.

    Each kind's key has a fixed length, so the flat tuple sorts as the
    three keys would in turn, with cheaper comparisons; IRIs, the
    common case, are keyed inline.
    """
    s, o = t.subject, t.object
    return (
        ((1, s.value) if isinstance(s, Iri) else term_sort_key(s))
        + (t.predicate.value,)
        + ((1, o.value) if isinstance(o, Iri) else term_sort_key(o))
    )


def quad_sort_key(q: Quad) -> tuple:
    graph_key = (0, "") if q.graph is None else (1, q.graph.value)
    return (graph_key,) + triple_sort_key(q.triple)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


class Graph:
    """An immutable set of triples, indexed by subject, predicate and
    object.

    The three maps are built on the first ``match`` with a bound
    position: graphs made in passing (``union`` in a transform) are
    never looked up, and the set never changes, so the maps never go
    stale.  The ordered index that the endpoint's joins read is built
    the same way, on its first ``ordered()``.
    """

    __slots__ = ("_triples", "_maps", "_ordered")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples = frozenset(triples)
        self._maps: tuple[dict, dict, dict] | None = None
        self._ordered: OrderedIndex | None = None

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self):
        return f"Graph({len(self._triples)} triples)"

    def union(self, other: "Graph | Iterable[Triple]") -> "Graph":
        other_triples = other._triples if isinstance(other, Graph) else other
        return Graph(self._triples | frozenset(other_triples))

    def match(
        self,
        subject: Subject | None = None,
        predicate: Iri | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Triples matching the given positions; ``None`` is a wildcard.

        A bound position narrows the candidates to its map entry, the
        shortest one when several are bound (the first on a tie).  Every
        triple in an entry holds the entry's term, so only the other
        bound positions are checked, and with none the entry itself is
        the answer; the choice of map can change only the speed, never
        the result.
        """
        if subject is None and predicate is None and obj is None:
            return iter(self._triples)
        by_s, by_p, by_o = self._index()
        if subject is not None:
            candidates = by_s.get(subject, ())
            chosen = 0
        else:
            candidates = None
        if predicate is not None:
            entry = by_p.get(predicate, ())
            if candidates is None or len(entry) < len(candidates):
                candidates, chosen = entry, 1
        if obj is not None:
            entry = by_o.get(obj, ())
            if candidates is None or len(entry) < len(candidates):
                candidates, chosen = entry, 2
        if chosen == 0:
            subject = None
        elif chosen == 1:
            predicate = None
        else:
            obj = None
        if subject is None and predicate is None and obj is None:
            return iter(candidates)
        return (
            t
            for t in candidates
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (obj is None or t.object == obj)
        )

    def _index(self) -> tuple[dict, dict, dict]:
        """The subject, predicate and object maps, built on first use.

        The maps are published in one attribute store, so a graph
        shared between threads is never seen half-indexed; two threads
        racing on the first lookup build equal maps.
        """
        maps = self._maps
        if maps is None:
            by_s: dict[Subject, list[Triple]] = {}
            by_p: dict[Iri, list[Triple]] = {}
            by_o: dict[Term, list[Triple]] = {}
            for t in self._triples:
                by_s.setdefault(t.subject, []).append(t)
                by_p.setdefault(t.predicate, []).append(t)
                by_o.setdefault(t.object, []).append(t)
            maps = self._maps = (by_s, by_p, by_o)
        return maps

    def ordered(self) -> OrderedIndex:
        """The graph's ordered index, built on first use and published
        in one attribute store, as the maps are."""
        index = self._ordered
        if index is None:
            index = self._ordered = OrderedIndex(self._triples)
        return index

    def subjects_of_type(self, cls: Iri) -> set[Subject]:
        rdf_type = Iri(RDF_TYPE)
        return {t.subject for t in self.match(predicate=rdf_type, obj=cls)}


class OrderedIndex:
    """A graph's triples as sorted rows of term ids.

    The dictionary ranks the graph's distinct terms by ``term_sort_key``,
    so ids order as their terms do in the canonical order (the idea of
    RDF-3X's dictionary, Neumann & Weikum, VLDB 2008).  A permutation is
    the id rows sorted by three positions in a given order, built on its
    first use and kept as one ``array`` column per position: a forked
    process that reads the columns writes no reference count into them.
    Two threads racing on a permutation build equal columns.
    """

    __slots__ = ("terms", "ids", "_rows", "_permutations")

    def __init__(self, triples: Iterable[Triple]):
        triples = list(triples)
        distinct = {t.subject for t in triples}
        distinct.update(t.predicate for t in triples)
        distinct.update(t.object for t in triples)
        #: The distinct terms in canonical order; a term's id is its index.
        self.terms: list[Term] = sorted(distinct, key=term_sort_key)
        #: The id of each term.
        self.ids: dict[Term, int] = {term: i for i, term in enumerate(self.terms)}
        ids = self.ids
        # Subject, predicate and object ids of each triple, in set order.
        self._rows = (
            array("i", [ids[t.subject] for t in triples]),
            array("i", [ids[t.predicate] for t in triples]),
            array("i", [ids[t.object] for t in triples]),
        )
        self._permutations: dict[tuple[int, ...], tuple[array, ...]] = {}

    def __len__(self) -> int:
        return len(self._rows[0])

    def permutation(self, order: tuple[int, ...]) -> tuple[array, ...]:
        """The id rows sorted by the positions of *order* (0 subject, 1
        predicate, 2 object; all three, once each), as one column per
        entry of *order*."""
        columns = self._permutations.get(order)
        if columns is None:
            rows = sorted(zip(*(self._rows[k] for k in order)))
            columns = tuple(array("i", [row[k] for row in rows]) for k in range(3))
            self._permutations[order] = columns
        return columns


# ---------------------------------------------------------------------------
# Term grammar
# ---------------------------------------------------------------------------

#: N-Quads declares no prefixes; its literals share the Turtle reader.
_NO_PREFIXES: dict[str, str] = {}


def _read_iri(sc: Scanner, iris: dict[str, Iri]) -> Iri:
    """Read an IRIREF, validating and allocating each distinct IRI once
    per ``iris`` cache (``Iri`` is immutable, so sharing is safe)."""
    value = sc.read_iriref()
    iri = iris.get(value)
    if iri is None:
        try:
            iri = iris[value] = Iri(value)
        except ValueError as exc:
            raise sc.error(str(exc)) from None
    return iri


def read_iri_or_pname(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> Iri:
    """Read an IRIREF or a prefixed name declared in *prefixes*."""
    if sc.peek() == "<":
        return _read_iri(sc, iris)
    prefix, local = sc.read_pname()
    if prefix not in prefixes:
        raise sc.error(f"unknown prefix: {prefix!r}")
    try:
        return Iri(prefixes[prefix] + local)
    except ValueError as exc:
        raise sc.error(str(exc)) from None


def read_literal(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> Literal:
    """Read a quoted literal with an optional ``@lang`` or ``^^datatype``."""
    lexical = sc.read_string()
    if sc.peek() == "@":
        return lang_literal(lexical, sc.read_langtag())
    if not sc.try_consume("^^"):
        return Literal(lexical)
    datatype = read_iri_or_pname(sc, prefixes, iris)
    try:
        return Literal(lexical, datatype)
    except ValueError as exc:
        raise sc.error(str(exc)) from None


def read_term(
    sc: Scanner, position: str, prefixes: dict[str, str], iris: dict[str, Iri]
) -> Term:
    """Read one term of the grammar Turtle and SPARQL share.

    *position* is ``subject``, ``predicate`` or ``object``: literals are
    allowed only as objects, and ``a`` means ``rdf:type`` only as a
    predicate.  Errors are raised through ``sc.error``, so each parser
    gets its own exception type with the position of the fault.
    """
    c = sc.peek()
    if c == "<":
        return _read_iri(sc, iris)
    if c == "_" and sc.peek(1) == ":":
        return BlankNode(sc.read_bnode_label())
    if c == '"':
        if position != "object":
            raise sc.error(f"literal not allowed in {position} position")
        return read_literal(sc, prefixes, iris)
    if c == "[":
        raise sc.error("unsupported feature: blank node property list")
    if c == "(":
        raise sc.error("unsupported feature: collection")
    if position == "predicate" and c == "a":
        nxt = sc.peek(1)
        if not (nxt.isalnum() or nxt in "_-:"):
            sc.advance()
            return Iri(RDF_TYPE)
    if sc.looks_like_pname():
        return read_iri_or_pname(sc, prefixes, iris)
    found = c or "end of input"
    raise sc.error(f"expected a term in {position} position, found {found!r}")


# ---------------------------------------------------------------------------
# N-Triples / N-Quads
# ---------------------------------------------------------------------------


def _read_term(sc: Scanner, iris: dict[str, Iri]) -> Term:
    c = sc.peek()
    if c == "<":
        return _read_iri(sc, iris)
    if c == "_":
        return BlankNode(sc.read_bnode_label())
    if c == '"':
        return read_literal(sc, _NO_PREFIXES, iris)
    raise sc.error(f"expected RDF term, found {c!r}" if c else "unexpected end of line")


def _split_statement(line: str, max_terms: int) -> list[str] | None:
    """The term texts of a statement line laid out as the serializers
    write it: three to *max_terms* terms, one space after each, then
    ``.``; ``None`` for any other line.

    Only a literal may hold a space or a quote, and a statement holds at
    most one literal, so the first and last quotes of a line delimit it;
    a line with two literals yields a text its reader does not consume
    whole.
    """
    first = line.find('"')
    if first < 0:
        texts = line.split(" ")
    else:
        last = line.rfind('"')
        head = line[:first].split(" ")
        tail = line[last + 1 :].split(" ")
        if head[-1]:
            return None
        head[-1] = line[first : last + 1] + tail[0]
        texts = head + tail[1:]
    if texts.pop() != "." or not 3 <= len(texts) <= max_terms:
        return None
    return texts


def _read_texts(
    texts: list[str], known: dict[str, Term], iris: dict[str, Iri]
) -> list[Term] | None:
    """The terms *texts* spell, each distinct text read once per
    *known* cache; ``None`` if a text does not read as one whole term."""
    terms = []
    for text in texts:
        term = known.get(text)
        if term is None:
            sc = _RdfScanner(text)
            try:
                term = _read_term(sc, iris)
            except ValueError:
                return None
            if not sc.at_end():
                return None
            known[text] = term
        terms.append(term)
    return terms


def _read_statement(
    line: str, lineno: int, max_terms: int, iris: dict[str, Iri]
) -> list[Term] | None:
    """The terms of one line, read character by character with every
    syntax error positioned; ``None`` for a blank or comment line."""
    sc = _RdfScanner(line, line_offset=lineno - 1)
    sc.skip_ws()
    if sc.at_end():
        return None
    terms: list[Term] = []
    while not sc.try_consume("."):
        if sc.at_end():
            raise sc.error("statement not terminated by '.'")
        if len(terms) == max_terms:
            raise sc.error("too many terms in statement")
        terms.append(_read_term(sc, iris))
        sc.skip_ws()
    sc.skip_ws()
    if not sc.at_end():
        raise sc.error("trailing characters after '.'")
    if len(terms) < 3:
        raise sc.error("statement has fewer than three terms")
    return terms


def _parse_lines(text: str, max_terms: int) -> Iterator[tuple[list[Term], int]]:
    """The terms of each statement line, with its line number; blank
    lines are skipped.

    Each distinct term text is read once per call: later occurrences
    are the same object.  A line that ``_split_statement`` does not
    take, or with a text that does not read as one whole term, goes
    through ``_read_statement``, which reads the same terms or raises
    the positioned error.
    """
    iris: dict[str, Iri] = {}
    known: dict[str, Term] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        texts = _split_statement(line, max_terms)
        terms = None if texts is None else _read_texts(texts, known, iris)
        if terms is None:
            terms = _read_statement(line, lineno, max_terms, iris)
            if terms is None:
                continue
        yield terms, lineno


def _make_triple(terms: list[Term], lineno: int) -> Triple:
    try:
        return Triple(terms[0], terms[1], terms[2])  # type: ignore[arg-type]
    except ValueError as exc:
        # Errors about the statement as a whole point at its line's start.
        raise ParseError(str(exc), lineno, 1) from None


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a Graph (duplicates collapse)."""
    return Graph(_make_triple(terms, lineno) for terms, lineno in _parse_lines(text, 3))


def parse_nquads(text: str) -> list[Quad]:
    """Parse N-Quads text; the fourth (graph) term is optional per statement."""
    quads = []
    for terms, lineno in _parse_lines(text, 4):
        triple = _make_triple(terms, lineno)
        graph = None
        if len(terms) == 4:
            graph = terms[3]
            if not isinstance(graph, Iri):
                raise ParseError("graph term must be an IRI", lineno, 1)
        quads.append(Quad(triple, graph))
    return quads


#: What a literal's lexical form escapes: backslash, quote, and the
#: control characters, with a short escape where N-Triples has one.
_LITERAL_ESCAPES = {
    **{c: f"\\u{c:04X}" for c in (*range(0x20), 0x7F)},
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
}


def format_term(t: Term) -> str:
    if isinstance(t, Iri):
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    body = f'"{t.lexical.translate(_LITERAL_ESCAPES)}"'
    if t.language:
        return f"{body}@{t.language}"
    if t.datatype.value == XSD_STRING:
        return body
    return f"{body}^^<{t.datatype.value}>"


def _write_lines(triples: Iterable[Triple], graph: Iri | None) -> str:
    """Canonical lines of one graph's distinct triples, sorted by term
    order, each ending with the graph term when there is one."""
    end = " .\n" if graph is None else f" <{graph.value}> .\n"
    return "".join([
        f"{format_term(t.subject)} <{t.predicate.value}> {format_term(t.object)}{end}"
        for t in sorted(triples, key=triple_sort_key)
    ])


def serialize_ntriples(g: Graph) -> str:
    """Canonical N-Triples: one line per triple, sorted by term order."""
    return _write_lines(g, None)


def serialize_nquads(
    statements: Iterable[Quad] | Iterable[Triple], graph: Iri | None = None
) -> str:
    """Canonical N-Quads, sorted by (graph, subject, predicate, object).

    With *graph*, *statements* are the triples of that one graph, with
    no duplicates (a ``Graph`` or a set).  Without it, they are quads of
    any graphs, and duplicates collapse; the default graph comes first,
    then each named graph in IRI order.
    """
    if graph is not None:
        return _write_lines(statements, graph)  # type: ignore[arg-type]
    by_graph: dict[Iri | None, set[Triple]] = {}
    for q in statements:
        by_graph.setdefault(q.graph, set()).add(q.triple)  # type: ignore[union-attr]
    order = sorted(by_graph, key=lambda g: (0, "") if g is None else (1, g.value))
    return "".join(_write_lines(by_graph[g], g) for g in order)


# ---------------------------------------------------------------------------
# Turtle subset
# ---------------------------------------------------------------------------


def parse_turtle_subset(text: str) -> Graph:
    """Parse the supported Turtle subset into a Graph.

    Supported: ``@prefix``, prefixed names, the ``a`` keyword, IRIs,
    plain/typed/language-tagged literals, ``;`` and ``,`` abbreviations,
    comments. Collections and blank node property lists are rejected.
    """
    sc = _RdfScanner(text)
    prefixes: dict[str, str] = {}
    iris: dict[str, Iri] = {}
    triples: list[Triple] = []

    while True:
        sc.skip_ws()
        if sc.at_end():
            break
        if sc.try_consume("@prefix"):
            sc.skip_ws()
            prefix, local = sc.read_pname()
            if local:
                raise sc.error("malformed @prefix declaration")
            sc.skip_ws()
            prefixes[prefix] = _read_iri(sc, iris).value
            sc.skip_ws()
            sc.expect(".")
            continue

        subject = read_term(sc, "subject", prefixes, iris)
        while True:  # predicate-object list
            sc.skip_ws()
            predicate = read_term(sc, "predicate", prefixes, iris)
            if not isinstance(predicate, Iri):
                raise sc.error("predicate must be an IRI")
            while True:  # object list
                sc.skip_ws()
                obj = read_term(sc, "object", prefixes, iris)
                triples.append(Triple(subject, predicate, obj))  # type: ignore[arg-type]
                sc.skip_ws()
                if not sc.try_consume(","):
                    break
            if sc.try_consume(";"):
                sc.skip_ws()
                if sc.try_consume("."):  # tolerate trailing `;` before `.`
                    break
                continue
            sc.expect(".")
            break

    return Graph(triples)

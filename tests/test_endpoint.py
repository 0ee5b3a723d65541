"""Endpoint tests: the query subset, execution semantics, HTTP routes.

Execution tests run against a small hand-built store; the HTTP tests
run one real server over a store persisted from the integrated golden
fixture, split across two named graphs so GRAPH scoping and /export
have something to distinguish.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import shutil
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from kgforge import endpoint
from kgforge.endpoint import (
    AskQuery,
    ConstructQuery,
    EndpointServer,
    QueryParseError,
    SelectQuery,
    execute_ask,
    execute_construct,
    execute_select,
    parse_query,
)
from kgforge.mapping import TriplePattern, Variable, eval_bgp, plan
from kgforge.mint import MintConfig, mint_graph_iri
from kgforge.rdf import (
    RDF_TYPE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    OrderedIndex,
    Quad,
    Triple,
    format_term,
    lang_literal,
    parse_nquads,
    parse_ntriples,
    serialize_nquads,
    serialize_ntriples,
    term_sort_key,
    triple_sort_key,
)
from kgforge.store import Store, graph_filename

from . import oracle, strategies

EX = "http://example.org/"
XSD_INT = Iri("http://www.w3.org/2001/XMLSchema#integer")

G1 = Iri(f"{EX}graphs/2014/05")
G2 = Iri(f"{EX}graphs/2014/06")


def iri(local: str) -> Iri:
    return Iri(EX + local)


def small_store() -> Store:
    store = Store()
    store.load_quads(
        [
            Quad(Triple(iri("a"), iri("knows"), iri("b")), G1),
            Quad(Triple(iri("b"), iri("knows"), iri("c")), G1),
            Quad(Triple(iri("a"), iri("name"), Literal("Alice")), G1),
            Quad(Triple(iri("c"), iri("name"), lang_literal("Carol", "en")), G2),
            Quad(Triple(iri("c"), iri("age"), Literal("39", XSD_INT)), G2),
            Quad(Triple(BlankNode("x"), iri("knows"), iri("a")), G2),
        ]
    )
    return store


class TestParseQuery:
    def test_select_explicit_variables(self):
        q = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}knows> ?o }}")
        assert isinstance(q, SelectQuery)
        assert q.variables == ("s", "o")
        assert q.where == (
            TriplePattern(Variable("s"), iri("knows"), Variable("o")),
        )
        assert q.graph is None and q.order_by is None
        assert q.limit is None and q.offset == 0

    def test_select_star_uses_first_appearance_order(self):
        q = parse_query(f"SELECT * WHERE {{ ?b <{EX}p> ?a . ?a <{EX}q> ?c }}")
        assert q.variables == ("b", "a", "c")

    def test_prefixes_expand(self):
        q = parse_query(
            f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:knows ex:b }}"
        )
        assert q.where[0].predicate == iri("knows")
        assert q.where[0].object == iri("b")

    def test_graph_scoping(self):
        q = parse_query(
            f"SELECT ?s WHERE {{ GRAPH <{G1.value}> {{ ?s ?p ?o }} }}"
        )
        assert q.graph == G1

    def test_order_limit_offset(self):
        q = parse_query(
            f"SELECT ?s WHERE {{ ?s ?p ?o }} ORDER BY ?s LIMIT 5 OFFSET 2"
        )
        assert (q.order_by, q.limit, q.offset) == ("s", 5, 2)

    def test_offset_before_limit(self):
        q = parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o }} OFFSET 2 LIMIT 5")
        assert (q.limit, q.offset) == (5, 2)

    def test_limit_zero_parses(self):
        assert parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT 0").limit == 0

    def test_ask_with_and_without_where(self):
        for text in (f"ASK {{ ?s ?p ?o }}", f"ASK WHERE {{ ?s ?p ?o }}"):
            q = parse_query(text)
            assert isinstance(q, AskQuery)
            assert len(q.where) == 1

    def test_construct(self):
        q = parse_query(
            f"CONSTRUCT {{ ?s <{EX}linked> ?o }} WHERE {{ ?s <{EX}knows> ?o }}"
        )
        assert isinstance(q, ConstructQuery)
        assert q.rule.template[0].predicate == iri("linked")

    def test_construct_with_graph_scope(self):
        q = parse_query(
            f"CONSTRUCT {{ ?s a <{EX}T> }} WHERE {{ GRAPH <{G2.value}> {{ ?s ?p ?o }} }}"
        )
        assert q.graph == G2

    def test_keywords_case_insensitive(self):
        q = parse_query(f"select ?s where {{ ?s ?p ?o }} order by ?s limit 1")
        assert q.limit == 1 and q.order_by == "s"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SELECT DISTINCT ?s WHERE { ?s ?p ?o }", "DISTINCT"),
            ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s)", "ORDER BY direction"),
            ("SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }", "GRAPH variable"),
            ("SELECT ?s ?s WHERE { ?s ?p ?o }", "duplicate variable"),
            ("SELECT WHERE { ?s ?p ?o }", "at least one variable"),
            ("SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s", "unexpected content"),
            ("SELECT ?s WHERE { FILTER(?s) }", "unsupported feature: FILTER"),
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT ?n", "non-negative integer"),
            # Only ASCII digits count: str.isdigit() takes both of these.
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT \u00b2", "non-negative integer"),
            ("SELECT ?s WHERE { ?s ?p ?o } LIMIT \u0663", "non-negative integer"),
            (f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {sys.maxsize + 1}", "LIMIT is larger than"),
            ("SELECT ?s WHERE { ?s ?p ?o } OFFSET " + "9" * 5_000, "OFFSET is larger than"),
            ("DESCRIBE <http://example.org/a>", "expected SELECT, ASK, or CONSTRUCT"),
            ("SELECT ?s WHERE { ?s ?p ?o . { ?a ?b ?c } }", "nested group"),
            ("PREFIX ex <http://example.org/> SELECT ?s WHERE { ?s ?p ?o }", "prefix"),
            ("SELECT ?s WHERE { GRAPH <g> { ?s ?p ?o } }", "not an absolute IRI"),
            ('SELECT ?s WHERE { ?s ?p "1"^^<int> }', "not an absolute IRI"),
            # A result holding either could not be written as UTF-8.
            ('CONSTRUCT { ?s ?p "\\uD800" } WHERE { ?s ?p ?o }', "not a Unicode scalar value"),
            ('SELECT ?s WHERE { ?s ?p "\\U00110000" }', "not a Unicode scalar value"),
        ],
    )
    def test_rejections_name_the_problem(self, text, message):
        with pytest.raises(QueryParseError, match=message):
            parse_query(text)

    def test_counts_up_to_maxsize_parse(self):
        q = parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {sys.maxsize} OFFSET 00000000000000000000007")
        assert (q.limit, q.offset) == (sys.maxsize, 7)

    def test_errors_carry_position(self):
        with pytest.raises(QueryParseError) as info:
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT x")
        assert info.value.line == 1
        assert info.value.column > 30


class TestExecuteSelect:
    def test_union_graph_by_default(self):
        store = small_store()
        result = execute_select(
            store, parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}knows> ?o }}")
        )
        assert len(result.rows) == 3

    def test_graph_scope_restricts(self):
        store = small_store()
        result = execute_select(
            store,
            parse_query(
                f"SELECT ?s ?o WHERE {{ GRAPH <{G1.value}> {{ ?s <{EX}knows> ?o }} }}"
            ),
        )
        assert {(row["s"], row["o"]) for row in result.rows} == {
            (iri("a"), iri("b")),
            (iri("b"), iri("c")),
        }

    def test_unknown_graph_is_empty_not_an_error(self):
        store = small_store()
        result = execute_select(
            store,
            parse_query(
                f"SELECT ?s WHERE {{ GRAPH <{EX}graphs/1999/01> {{ ?s ?p ?o }} }}"
            ),
        )
        assert result.rows == ()

    def test_default_order_is_canonical_and_deterministic(self):
        store = small_store()
        q = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}knows> ?o }}")
        first = execute_select(store, q)
        again = execute_select(store, q)
        assert first.rows == again.rows
        # Canonical term order puts the blank-node subject first.
        assert first.rows[0]["s"] == BlankNode("x")

    def test_order_by_variable(self):
        store = small_store()
        result = execute_select(
            store,
            parse_query(f"SELECT ?o WHERE {{ ?s <{EX}knows> ?o }} ORDER BY ?o"),
        )
        assert [row["o"] for row in result.rows] == [iri("a"), iri("b"), iri("c")]

    def test_limit_offset_slice_after_ordering(self):
        store = small_store()
        result = execute_select(
            store,
            parse_query(
                f"SELECT ?o WHERE {{ ?s <{EX}knows> ?o }} ORDER BY ?o LIMIT 1 OFFSET 1"
            ),
        )
        assert [row["o"] for row in result.rows] == [iri("b")]

    def test_limit_zero_keeps_variable_list(self):
        store = small_store()
        result = execute_select(
            store, parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}knows> ?o }} LIMIT 0")
        )
        assert result.rows == ()
        assert result.variables == ("s", "o")
        assert result.to_json_dict() == {
            "head": {"vars": ["s", "o"]},
            "results": {"bindings": []},
        }

    def test_projected_variable_not_in_pattern_is_unbound(self):
        store = small_store()
        result = execute_select(
            store, parse_query(f"SELECT ?s ?nope WHERE {{ ?s <{EX}name> ?o }}")
        )
        assert result.variables == ("s", "nope")
        for binding in result.to_json_dict()["results"]["bindings"]:
            assert "nope" not in binding

    def test_matches_eval_bgp_modulo_order(self):
        store = small_store()
        patterns = (
            TriplePattern(Variable("s"), iri("knows"), Variable("o")),
            TriplePattern(Variable("o"), iri("name"), Variable("n")),
        )
        expected = {
            frozenset(sol.items()) for sol in eval_bgp(store.triples(), plan(patterns))
        }
        result = execute_select(
            store,
            parse_query(
                f"SELECT * WHERE {{ ?s <{EX}knows> ?o . ?o <{EX}name> ?n }}"
            ),
        )
        assert {frozenset(row.items()) for row in result.rows} == expected

    def test_json_term_shapes(self):
        store = small_store()
        doc = execute_select(
            store,
            parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}name> ?o }} ORDER BY ?o"),
        ).to_json_dict()
        bindings = doc["results"]["bindings"]
        assert bindings[0]["o"] == {"type": "literal", "value": "Alice"}
        assert bindings[1]["o"] == {
            "type": "literal",
            "value": "Carol",
            "xml:lang": "en",
        }
        typed = execute_select(
            store, parse_query(f"SELECT ?n WHERE {{ ?s <{EX}age> ?n }}")
        ).to_json_dict()["results"]["bindings"][0]["n"]
        assert typed == {
            "type": "literal",
            "value": "39",
            "datatype": XSD_INT.value,
        }
        bnode = execute_select(
            store, parse_query(f"SELECT ?s WHERE {{ ?s <{EX}knows> <{EX}a> }}")
        ).to_json_dict()["results"]["bindings"][0]["s"]
        assert bnode == {"type": "bnode", "value": "x"}


def documented_order(solutions, order_by):
    """*solutions* sorted as the README documents SELECT's order: the
    ORDER BY variable first when the pattern binds it, then every other
    variable in name order, terms in the canonical term order."""

    def key(solution):
        names = sorted(solution)
        if order_by in solution:
            names = [order_by] + [name for name in names if name != order_by]
        return [term_sort_key(solution[name]) for name in names]

    return sorted(solutions, key=key)


#: (ORDER BY, LIMIT, OFFSET) per case.  "last" stands for the pattern's
#: last variable in name order, so that ORDER BY changes the order.
ORDER_CASES = {
    "no-order-by": (None, 4, 1),
    "order-by-bound": ("last", 4, 1),
    "order-by-unbound": ("zz", 4, 1),
    "limit-0": ("last", 0, 2),
    "limit-past-the-solutions": ("last", 1_000, 1),
    "offset-without-limit": ("last", None, 3),
}


def note_answer(answer) -> None:
    """Record whether an oracle example compared an empty answer."""
    event("non-empty answer" if answer else "empty answer")


#: Patterns of the shapes the ordered join treats apart, over a random
#: graph of the oracle's terms.  Where the shape allows, its constants
#: come from the graph, so that most answers are not empty.
def shaped_bgp(shape: str, graph: Graph, rng) -> list[TriplePattern]:
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    if shape == "repeated-variable":
        loops = sorted({t.predicate for t in graph if t.subject == t.object}, key=term_sort_key)
        predicate = rng.choice(loops or oracle.PREDICATES)
        return [TriplePattern(a, predicate, a), TriplePattern(a, b, c)]
    if shape == "ground-pattern":
        if graph and rng.random() < 0.7:
            t = rng.choice(sorted(graph, key=triple_sort_key))
        else:
            t = Triple(rng.choice(oracle.SUBJECTS), rng.choice(oracle.PREDICATES), rng.choice(oracle.OBJECTS))
        return [TriplePattern(t.subject, t.predicate, t.object), TriplePattern(a, b, c)]
    assert shape == "absent-constant"
    return [TriplePattern(a, iri("absent"), b), TriplePattern(b, c, a)]


class TestSelectOrderAgainstOracle:
    @pytest.mark.parametrize(
        "order_by, limit, offset", list(ORDER_CASES.values()), ids=list(ORDER_CASES)
    )
    @given(st.integers(0, 2**32))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_rows_are_the_sorted_bruteforce_slice(self, order_by, limit, offset, seed):
        case = oracle.random_case(random.Random(seed), 40, 3)
        assume(case is not None)
        graph, bgp = case
        names = sorted(set().union(*(p.variables() for p in bgp)))
        if order_by == "last":
            assume(len(names) >= 2)
            order_by = names[-1]
        store = Store()
        store.load_quads([Quad(t, G1) for t in graph])
        query = SelectQuery(
            variables=tuple(names),
            where=tuple(bgp),
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
        solutions = [dict(s) for s in oracle.eval_bgp_bruteforce(graph, bgp)]
        note_answer(solutions)
        end = None if limit is None else offset + limit
        expected = documented_order(solutions, order_by)[offset:end]
        assert list(execute_select(store, query).rows) == expected

    @pytest.mark.parametrize(
        "shape, graph_iri",
        [
            ("repeated-variable", G1),
            ("ground-pattern", G1),
            ("absent-constant", G1),
            ("repeated-variable", Iri(f"{EX}graphs/1999/01")),
        ],
        ids=["repeated-variable", "ground-pattern", "absent-constant", "unknown-graph"],
    )
    @given(st.integers(0, 2**32))
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    def test_shaped_patterns_are_the_sorted_bruteforce_slice(self, shape, graph_iri, seed):
        rng = random.Random(seed)
        graph = oracle.random_graph(rng, 25)
        bgp = shaped_bgp(shape, graph, rng)
        store = Store()
        store.load_quads([Quad(t, G1) for t in graph])
        names = sorted(set().union(*(p.variables() for p in bgp)))
        offset = rng.randrange(3)
        query = SelectQuery(
            variables=tuple(names), where=tuple(bgp), graph=graph_iri,
            order_by=rng.choice(names), limit=5, offset=offset,
        )
        scoped = graph if graph_iri == G1 else Graph()
        solutions = [dict(s) for s in oracle.eval_bgp_bruteforce(scoped, bgp)]
        note_answer(solutions)
        expected = documented_order(solutions, query.order_by)[offset : offset + 5]
        assert list(execute_select(store, query).rows) == expected

    def test_ties_on_the_order_by_variable_fall_to_the_other_variables(self):
        store = Store()
        store.load_quads(
            [
                Quad(Triple(iri(s), iri("knows"), iri(o)), G1)
                for s, o in [("a", "d"), ("b", "a"), ("a", "b"), ("a", "c")]
            ]
        )
        result = execute_select(
            store,
            parse_query(
                f"SELECT ?s ?o WHERE {{ ?s <{EX}knows> ?o }} ORDER BY ?s LIMIT 2 OFFSET 1"
            ),
        )
        assert [(row["s"], row["o"]) for row in result.rows] == [
            (iri("a"), iri("c")),
            (iri("a"), iri("d")),
        ]


class TestAskAgainstOracle:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_ask_is_bruteforce_nonemptiness(self, seed):
        case = oracle.random_case(random.Random(seed), 40, 3)
        assume(case is not None)
        graph, bgp = case
        store = Store()
        store.load_quads([Quad(t, G1) for t in graph])
        expected = bool(oracle.eval_bgp_bruteforce(graph, bgp))
        note_answer(expected)
        assert execute_ask(store, AskQuery(where=tuple(bgp))) is expected


def pattern_text(patterns) -> str:
    """*patterns* as the triples of a query block."""
    return " ".join(
        " ".join(repr(t) if isinstance(t, Variable) else format_term(t) for t in p.terms()) + " ."
        for p in patterns
    )


def random_template(rng, where) -> list[TriplePattern]:
    """A CONSTRUCT template over the variables of *where*, each position
    a variable in most draws: a subject variable may stand for a literal
    and so drop its triple."""
    names = sorted(set().union(*(p.variables() for p in where)))

    def term(pool):
        if names and rng.random() < 0.7:
            return Variable(rng.choice(names))
        return rng.choice(pool)

    return [
        TriplePattern(term(oracle.SUBJECTS), term(oracle.PREDICATES), term(oracle.OBJECTS))
        for _ in range(rng.randint(1, 3))
    ]


def construct_query(template, where, graph: Iri | None = None) -> ConstructQuery:
    block = pattern_text(where)
    if graph is not None:
        block = f"GRAPH <{graph.value}> {{ {block} }}"
    return parse_query(f"CONSTRUCT {{ {pattern_text(template)} }} WHERE {{ {block} }}")


class TestConstructAgainstOracle:
    """CONSTRUCT, planned for the ordered join, gives the template over
    every brute-force solution."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_construct_is_the_bruteforce_template(self, seed):
        rng = random.Random(seed)
        case = oracle.random_case(rng, 40, 3)
        assume(case is not None)
        graph, where = case
        template = random_template(rng, where)
        store = Store()
        store.load_quads([Quad(t, G1) for t in graph])
        note_answer(oracle.eval_bgp_bruteforce(graph, where))
        expected = oracle.construct_bruteforce(graph, where, template)
        assert execute_construct(store, construct_query(template, where)) == expected

    @pytest.mark.parametrize(
        "shape, graph_iri",
        [
            ("repeated-variable", G1),
            ("ground-pattern", G1),
            ("absent-constant", G1),
            ("repeated-variable", Iri(f"{EX}graphs/1999/01")),
            ("empty-where", G1),
        ],
        ids=["repeated-variable", "ground-pattern", "absent-constant", "unknown-graph", "empty-where"],
    )
    @given(st.integers(0, 2**32))
    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    def test_shaped_patterns_are_the_bruteforce_template(self, shape, graph_iri, seed):
        rng = random.Random(seed)
        graph = oracle.random_graph(rng, 25)
        where = [] if shape == "empty-where" else shaped_bgp(shape, graph, rng)
        # An empty WHERE leaves the template only its constants.
        template = random_template(rng, where)
        store = Store()
        store.load_quads([Quad(t, G1) for t in graph])
        scoped = graph if graph_iri == G1 else Graph()
        note_answer(oracle.eval_bgp_bruteforce(scoped, where))
        expected = oracle.construct_bruteforce(scoped, where, template)
        query = construct_query(template, where, graph_iri)
        assert execute_construct(store, query) == expected


class TestOracleCasesHaveAnswers:
    """The oracle properties above compare answers, not mostly empty
    ones: over a fixed range of seeds, at least half their cases have a
    solution.  Hypothesis's events show the share per run."""

    def test_random_cases(self):
        cases = [oracle.random_case(random.Random(seed), 40, 3) for seed in range(100)]
        answered = [case for case in cases if case and oracle.eval_bgp_bruteforce(*case)]
        assert len(answered) >= len(cases) / 2

    @pytest.mark.parametrize("shape", ["repeated-variable", "ground-pattern"])
    def test_shaped_cases(self, shape):
        answered = 0
        for seed in range(100):
            rng = random.Random(seed)
            graph = oracle.random_graph(rng, 25)
            answered += bool(oracle.eval_bgp_bruteforce(graph, shaped_bgp(shape, graph, rng)))
        assert answered >= 50


class _Counted:
    """A permutation column that logs how many ids each read takes."""

    def __init__(self, column, log: list[int]):
        self.column, self.log = column, log

    def __len__(self) -> int:
        return len(self.column)

    def __getitem__(self, i):
        got = self.column[i]
        self.log.append(len(got) if isinstance(i, slice) else 1)
        return got


class TestAPrefixReadsAPrefix:
    """LIMIT and ASK stop the join: the ids read from the index stay
    bounded while the graph and its solution count grow.  Counted, not
    timed."""

    @pytest.fixture
    def reads(self, monkeypatch) -> list[int]:
        log: list[int] = []
        permutation = OrderedIndex.permutation

        def counted(index, order):
            return tuple(_Counted(column, log) for column in permutation(index, order))

        monkeypatch.setattr(OrderedIndex, "permutation", counted)
        return log

    @pytest.mark.parametrize("size", [50, 5_000])
    def test_cross_product_limit_1_and_ask(self, reads, size):
        store = Store()
        store.load_quads(
            [Quad(Triple(iri(f"s{i}"), Iri(RDF_TYPE), iri(f"C{i % 7}")), G1) for i in range(size)]
        )
        store.triples().ordered()  # the index exists, as in a warm worker
        cross = parse_query("SELECT * WHERE { ?a a ?t . ?b a ?u } LIMIT 1")
        assert len(execute_select(store, cross).rows) == 1
        assert sum(reads) <= 150
        reads.clear()
        assert execute_ask(store, parse_query("ASK { ?s a ?t }"))
        assert sum(reads) <= 150


class TestExecuteAskConstruct:
    def test_ask(self):
        store = small_store()
        assert execute_ask(store, parse_query(f"ASK {{ ?s <{EX}age> ?n }}"))
        assert not execute_ask(
            store, parse_query(f"ASK {{ ?s <{EX}age> <{EX}nothing> }}")
        )

    def test_ask_respects_graph_scope(self):
        store = small_store()
        assert not execute_ask(
            store,
            parse_query(f"ASK {{ GRAPH <{G1.value}> {{ ?s <{EX}age> ?n }} }}"),
        )

    def test_construct_builds_new_triples(self):
        store = small_store()
        graph = execute_construct(
            store,
            parse_query(
                f"CONSTRUCT {{ ?o <{EX}knownBy> ?s }} WHERE {{ ?s <{EX}knows> ?o }}"
            ),
        )
        assert Triple(iri("b"), iri("knownBy"), iri("a")) in graph
        assert len(graph) == 3


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live endpoint over the integrated golden fixture, split so that
    the D-block lines live in 2014-05 and everything else in 2014-06."""
    goldens = Path(__file__).parent / "goldens"
    triples = parse_ntriples((goldens / "integrated_golden.nt").read_text())
    may, june = [], []
    for t in sorted(triples, key=triple_sort_key):
        target = may if "resources/2014/05/" in str(t.subject) else june
        target.append(t)
    store = Store()
    store.load_quads([Quad(t, G1) for t in may])
    store.load_quads([Quad(t, G2) for t in june])
    store_dir = tmp_path_factory.mktemp("endpoint") / "store"
    store.persist(store_dir)

    server = EndpointServer(store_dir, "127.0.0.1", 0)
    server.refresh()
    server.start()
    yield server
    server.stop()


@contextlib.contextmanager
def serving(store_dir):
    """A server of its own, for a test that patches a module constant:
    its workers fork after the patch and so see it."""
    server = EndpointServer(store_dir, "127.0.0.1", 0)
    server.refresh()
    server.start()
    try:
        yield server
    finally:
        server.stop()


def get(server, path, **kwargs):
    request = urllib.request.Request(server.url + path, **kwargs)
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get_content_type(), response.read()


def get_error(server, path, **kwargs) -> int:
    try:
        get(server, path, **kwargs)
    except urllib.error.HTTPError as exc:
        return exc.code
    raise AssertionError("expected an HTTP error")


def sparql_url(query: str) -> str:
    return "/sparql?" + urllib.parse.urlencode({"query": query})


class TestHttp:
    def test_select_get(self, served):
        status, ctype, body = get(served, sparql_url("SELECT ?s WHERE { ?s ?p ?o }"))
        assert status == 200
        assert ctype == "application/sparql-results+json"
        doc = json.loads(body)
        assert doc["head"]["vars"] == ["s"]
        assert len(doc["results"]["bindings"]) > 0

    def test_select_post_form(self, served):
        data = urllib.parse.urlencode(
            {"query": "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"}
        ).encode()
        status, _, body = get(served, "/sparql", data=data)
        assert status == 200
        assert len(json.loads(body)["results"]["bindings"]) == 1

    def test_select_post_raw_sparql(self, served):
        status, _, body = get(
            served,
            "/sparql",
            data=b"ASK { ?s ?p ?o }",
            headers={"Content-Type": "application/sparql-query"},
        )
        assert status == 200
        assert json.loads(body)["boolean"] is True

    def test_graph_scoped_select_sees_only_its_partition(self, served):
        count = "SELECT ?s ?p ?o WHERE { GRAPH <%s> { ?s ?p ?o } }"
        _, _, body_may = get(served, sparql_url(count % G1.value))
        _, _, body_june = get(served, sparql_url(count % G2.value))
        may = len(json.loads(body_may)["results"]["bindings"])
        june = len(json.loads(body_june)["results"]["bindings"])
        assert may > 0 and june > 0
        _, _, body_all = get(served, sparql_url("SELECT ?s ?p ?o WHERE { ?s ?p ?o }"))
        assert may + june == len(json.loads(body_all)["results"]["bindings"])

    def test_construct_returns_ntriples(self, served):
        query = "CONSTRUCT { ?s a <http://example.org/T> } WHERE { ?s ?p ?o }"
        status, ctype, body = get(served, sparql_url(query))
        assert status == 200
        assert ctype == "application/n-triples"
        reparsed = parse_ntriples(body.decode())
        assert all(t.object == iri("T") for t in reparsed)

    def test_stats_route(self, served):
        status, ctype, body = get(served, "/stats")
        assert status == 200
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["graph_count"] == 2
        assert doc["total_triples"] == 40

    def test_export_partition(self, served):
        status, ctype, body = get(served, "/export/2014/05")
        assert status == 200
        assert ctype == "application/n-quads"
        quads = parse_nquads(body.decode())
        assert quads and all(q.graph == G1 for q in quads)

    def test_export_unknown_partition_404(self, served):
        assert get_error(served, "/export/1999/01") == 404
        assert get_error(served, "/export/not/numbers") == 404

    def test_unknown_path_404(self, served):
        assert get_error(served, "/nope") == 404

    def test_parse_error_400(self, served):
        assert get_error(served, sparql_url("SELECT * WHERE { BROKEN")) == 400

    def test_an_offset_of_5000_digits_is_a_400_and_the_worker_stays_up(self, served, capfd):
        query = "SELECT ?s WHERE { ?s ?p ?o } OFFSET " + "9" * 5_000
        assert get_error(served, sparql_url(query)) == 400
        assert get(served, "/stats")[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize(
        "path",
        [
            b"/export/\xb2/5",
            b"/export/2014/\xb2",
            b"/export/" + b"9" * 5_000 + b"/5",
            b"/export/2014/" + b"0" * 5_000 + b"5",
        ],
        ids=["superscript-year", "superscript-month", "5000-digit-year", "5000-digit-month"],
    )
    def test_an_export_path_of_other_digits_is_a_404_and_the_worker_stays_up(
        self, served, path, capfd
    ):
        # Sent raw: http.client encodes no byte outside ASCII, and the
        # server reads the request line as Latin-1, so 0xB2 is '²'.
        with socket.create_connection(served.address, timeout=10) as sock:
            sock.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 404 ")
        assert reply.endswith(b"export paths look like /export/<year>/<month>\n")
        assert "Traceback" not in capfd.readouterr().err
        assert get(served, "/stats")[0] == 200

    def test_missing_query_param_400(self, served):
        assert get_error(served, "/sparql") == 400

    def test_unacceptable_accept_406(self, served):
        code = get_error(
            served,
            sparql_url("SELECT ?s WHERE { ?s ?p ?o }"),
            headers={"Accept": "text/csv"},
        )
        assert code == 406

    def test_acceptable_wildcards(self, served):
        for accept in ("*/*", "application/*", "application/sparql-results+json"):
            status, _, _ = get(
                served,
                sparql_url("ASK { ?s ?p ?o }"),
                headers={"Accept": accept},
            )
            assert status == 200

    def test_503_before_first_snapshot(self, tmp_path):
        server = EndpointServer(tmp_path / "no-store", "127.0.0.1", 0)
        server.start()
        try:
            assert get_error(server, "/stats") == 503
            server.refresh()  # empty store, but a snapshot now exists
            status, _, _ = get(server, "/stats")
            assert status == 200
        finally:
            server.stop()

    def test_refresh_swaps_atomically(self, tmp_path):
        store = Store()
        store.load_quads([Quad(Triple(iri("a"), iri("p"), iri("b")), G1)])
        store_dir = tmp_path / "store"
        store.persist(store_dir)
        server = EndpointServer(store_dir, "127.0.0.1", 0)
        server.refresh()
        server.start()
        try:
            _, _, body = get(server, "/stats")
            assert json.loads(body)["total_triples"] == 1
            store.load_quads([Quad(Triple(iri("a"), iri("p"), iri("c")), G1)])
            store.persist(store_dir)
            # Not visible until the snapshot is refreshed.
            _, _, body = get(server, "/stats")
            assert json.loads(body)["total_triples"] == 1
            server.refresh()
            _, _, body = get(server, "/stats")
            assert json.loads(body)["total_triples"] == 2
        finally:
            server.stop()

    def test_no_graph_of_a_snapshot_builds_hash_maps(self, served):
        """Every query form reads the ordered index, so neither
        ``refresh`` nor a CONSTRUCT builds a graph's hash maps."""
        server = EndpointServer(served.store_dir, "127.0.0.1", 0)
        try:
            server.refresh()
            store = server.snapshot.store
            where = "?s ?p ?o . ?o ?q ?r"
            for block in (where, f"GRAPH <{G2.value}> {{ {where} }}"):
                query = parse_query(f"CONSTRUCT {{ ?o ?q ?s }} WHERE {{ {block} }}")
                assert execute_construct(store, query)
            assert [g for g in [None, *store.graphs()] if store.triples(g)._maps is not None] == []
        finally:
            server.stop()

    def test_a_warm_snapshot_answers_without_its_triple_sets(self, served, monkeypatch):
        """A pattern without a variable is an index lookup, so once the
        indexes are built no query form reads a snapshot graph's
        triples, not even a fully ground one."""
        server = EndpointServer(served.store_dir, "127.0.0.1", 0)
        try:
            server.refresh()
            store = server.snapshot.store
        finally:
            server.stop()
        june = sorted(store.triples(G2), key=triple_sort_key)
        present = next(t for t in june if t.predicate == Iri(RDF_TYPE))
        absent = next(
            Triple(present.subject, present.predicate, t.object)
            for t in june
            if Triple(present.subject, present.predicate, t.object) not in june
        )

        def ground(t: Triple) -> str:
            return " ".join(map(format_term, (t.subject, t.predicate, t.object)))

        queries = [
            f"ASK {{ {ground(present)} }}",
            f"ASK {{ {ground(absent)} }}",
            f"SELECT * WHERE {{ {ground(present)} . ?s a ?c }}",
            f"CONSTRUCT {{ {format_term(present.subject)} <{EX}typed> \"yes\" }} "
            f"WHERE {{ GRAPH <{G2.value}> {{ {ground(present)} }} }}",
        ]
        parsed = [parse_query(text) for text in queries]
        expected = []
        for query in parsed:
            if isinstance(query, ConstructQuery):
                rule = query.rule
                graph = store.triples(query.graph)
                expected.append(oracle.construct_bruteforce(graph, rule.where, rule.template))
            else:
                expected.append(oracle.eval_bgp_bruteforce(store.triples(query.graph), query.where))
        assert [bool(answer) for answer in expected] == [True, False, True, True]

        def answer(query):
            if isinstance(query, ConstructQuery):
                return execute_construct(store, query)
            if isinstance(query, AskQuery):
                return execute_ask(store, query)
            return {frozenset(row.items()) for row in execute_select(store, query).rows}

        warm = [answer(query) for query in parsed]

        def unread(graph, *args):
            raise AssertionError("a query read a graph's triple set")

        snapshot = {id(store.triples(g)) for g in [None, *store.graphs()]}
        for name in ("__contains__", "__iter__"):
            read = getattr(Graph, name)
            monkeypatch.setattr(
                Graph,
                name,
                lambda graph, *args, read=read: (unread if id(graph) in snapshot else read)(
                    graph, *args
                ),
            )
        blind = [answer(query) for query in parsed]
        monkeypatch.undo()
        assert blind == warm
        assert blind[:2] == [True, False]
        assert blind[2:] == expected[2:]

    def test_stats_computed_once_per_snapshot(self, tmp_path, monkeypatch):
        calls = []
        stats = Store.stats
        monkeypatch.setattr(Store, "stats", lambda store: calls.append(store) or stats(store))
        store = Store()
        store.load_quads([Quad(Triple(iri("a"), iri("p"), iri("b")), G1)])
        store.persist(tmp_path / "store")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        server.start()
        try:
            bodies = {get(server, "/stats")[2] for _ in range(3)}
        finally:
            server.stop()
        assert len(calls) == 1
        assert bodies == {(json.dumps(stats(store).to_json_dict(), indent=2) + "\n").encode()}

    @pytest.mark.parametrize(
        "headers, body, message",
        [
            ({"Content-Length": "abc"}, b"query=ASK", "invalid Content-Length"),
            ({"Content-Length": "-1"}, b"query=ASK", "invalid Content-Length"),
            ({"Content-Length": "3"}, b"\xff\xfe\xfd", "not valid UTF-8"),
            (
                {"Content-Length": "4", "Content-Type": "application/sparql-query"},
                b"AS\xc3K",
                "not valid UTF-8",
            ),
        ],
        ids=["non-numeric-length", "negative-length", "non-utf8-form", "non-utf8-query"],
    )
    def test_bad_post_body_400(self, served, headers, body, message):
        conn = http.client.HTTPConnection(*served.address, timeout=10)
        try:
            conn.request("POST", "/sparql", body=body, headers=headers)
            response = conn.getresponse()
            assert response.status == 400
            assert message in response.read().decode()
        finally:
            conn.close()
        status, _, _ = get(served, "/stats")
        assert status == 200

    def test_invalid_term_is_a_positioned_400(self, served, capfd):
        query = (
            'SELECT ?s WHERE { ?s <http://ex.org/p> "x"^^'
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> }"
        )
        conn = http.client.HTTPConnection(*served.address, timeout=10)
        try:
            conn.request("GET", sparql_url(query))
            response = conn.getresponse()
            assert response.status == 400
            assert "(line 1, column 100)" in response.read().decode()
        finally:
            conn.close()
        assert "Traceback" not in capfd.readouterr().err
        status, _, _ = get(served, "/stats")
        assert status == 200

    def test_short_post_body_408(self, served, monkeypatch, capfd):
        # The body promises 100 bytes and delivers 6, then the client
        # waits; the handler must answer rather than block forever.
        monkeypatch.setattr(endpoint, "BODY_TIMEOUT_S", 0.2)
        with serving(served.store_dir) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 100\r\n\r\nquery="
                )
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1")
            assert head.startswith("HTTP/1.1 408")
            assert "Connection: close" in head.split("\r\n")
            assert "Traceback" not in capfd.readouterr().err
            status, _, _ = get(server, "/stats")
            assert status == 200

    def test_half_a_request_line_is_closed_at_the_header_deadline(self, served, monkeypatch, capfd):
        monkeypatch.setattr(endpoint, "HEADER_TIMEOUT_S", 0.5)
        with serving(served.store_dir) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"GET /sta")
                started = time.monotonic()
                assert sock.recv(4096) == b""
                assert time.monotonic() - started < 5
            # A request in flight is not under the deadline: this one
            # keeps its connection past it.
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                conn.request("GET", "/stats")
                assert conn.getresponse().read()
                time.sleep(0.2)
                conn.request("GET", "/stats")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
        assert "Traceback" not in capfd.readouterr().err

    def test_oversized_post_413_before_the_body(self, served, capfd):
        # Nothing follows the headers: the answer must not wait for the
        # declared gigabyte.
        with socket.create_connection(served.address, timeout=10) as sock:
            sock.sendall(
                b"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000000000\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 413")
        assert "Connection: close" in head.split("\r\n")
        assert "Traceback" not in capfd.readouterr().err
        status, _, _ = get(served, "/stats")
        assert status == 200

    @pytest.mark.parametrize(
        "line", [b"GET /stats\r\n", b" /sparql HTTP/1.1\r\n"], ids=["no-version", "no-method"]
    )
    def test_request_line_of_two_words_gets_a_400_status_line(self, served, line, capfd):
        with socket.create_connection(served.address, timeout=10) as sock:
            sock.sendall(line)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head.split("\r\n")
        assert "Traceback" not in capfd.readouterr().err
        status, _, _ = get(served, "/stats")
        assert status == 200

    def test_read_only_no_update_route(self, served):
        data = urllib.parse.urlencode(
            {"query": "INSERT DATA { <a> <b> <c> }"}
        ).encode()
        try:
            get(served, "/sparql", data=data)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:
            raise AssertionError("update must be rejected")


# ---------------------------------------------------------------------------
# SPARQL-JSON bodies: written from id rows, byte for byte json.dumps's
# ---------------------------------------------------------------------------


def dumps_body(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def swapped(term, swap: dict):
    return term if isinstance(term, Variable) else swap.get(term, term)


#: Terms whose JSON text needs escapes: control, quote and backslash,
#: non-ASCII and astral characters, in each kind of term.
ODD_TERMS = (
    Iri("http://example.org/café/\U0001f600"),
    BlankNode("bé0"),
    Literal("\x00\x1f\t\n\"\\ é   \U0001d11e \x7f"),
    lang_literal("grüße \U0001f600", "de-CH"),
    Literal("12é", Iri(f"{EX}type/é")),
    Literal("1", XSD_INT),
)


class TestSelectBody:
    """The endpoint writes a SELECT body from the join's id rows; it is
    the body ``json.dumps(result.to_json_dict(), indent=2)`` writes."""

    @given(st.integers(0, 2**32).map(random.Random), st.data())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_the_written_body_is_the_json_dumps_body(self, rng, data):
        shape = oracle.random_graph(rng, 60)
        # A pattern with solutions, so that most examples write rows.
        for _ in range(10):
            bgp = oracle.random_bgp(rng, 3)
            if oracle.product_cost(shape, bgp) <= 20_000 and oracle.eval_bgp_bruteforce(shape, bgp):
                break
        else:
            assume(False)
        # Each pool term of the oracle becomes a drawn one: the graph
        # keeps the oracle's join shapes and holds any term.
        subjects = st.one_of(strategies.subjects, st.sampled_from(ODD_TERMS[:2]))
        objects = st.one_of(strategies.terms, st.sampled_from(ODD_TERMS))
        swap = {t: data.draw(subjects) for t in oracle.SUBJECTS}
        swap.update({t: data.draw(objects) for t in oracle.OBJECTS if t not in swap})
        store = Store()
        store.load_quads(
            [Quad(Triple(swap[t.subject], t.predicate, swap[t.object]), G1) for t in shape]
        )
        where = tuple(
            TriplePattern(*(swapped(term, swap) for term in p.terms())) for p in bgp
        )
        names = sorted(set().union(*(p.variables() for p in bgp)))
        query = SelectQuery(
            variables=tuple(rng.sample([*names, "unbound"], rng.randint(1, len(names) + 1))),
            where=where,
            order_by=rng.choice([None, *names]),
            limit=rng.choice([None, 0, 1, 3, 10]),
            offset=rng.randrange(3),
        )
        result = execute_select(store, query)
        assert endpoint.select_body(result) == dumps_body(result.to_json_dict())

    def test_odd_terms_over_http(self, tmp_path):
        store = Store()
        store.load_quads(
            [Quad(Triple(ODD_TERMS[k % 2], iri(f"p{k}"), o), G1) for k, o in enumerate(ODD_TERMS)]
        )
        store.persist(tmp_path / "store")
        query = "SELECT ?o ?sé WHERE { ?sé ?p ?o } ORDER BY ?o"
        with serving(tmp_path / "store") as server:
            _, _, body = get(server, sparql_url(query))
        result = execute_select(store, parse_query(query))
        assert len(result.rows) == len(ODD_TERMS)
        assert body == dumps_body(result.to_json_dict())

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 0",
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s OFFSET 100000",
            "SELECT ?s ?nothing WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 3 OFFSET 2",
            "SELECT ?nothing WHERE { ?s ?p ?o } LIMIT 2",
            "SELECT * WHERE { GROUND }",
            "SELECT * WHERE { GRAPH <http://example.org/graphs/2014/05> { GROUND } }",
        ],
        ids=["limit-0", "offset-past-end", "projected-unbound", "only-unbound", "ground", "ground-in-graph"],
    )
    def test_edge_cases_over_http(self, served, query):
        store = Store.load(served.store_dir)
        ground = min(store.triples(), key=triple_sort_key)
        query = query.replace("GROUND", serialize_ntriples(Graph([ground])).removesuffix(" .\n"))
        status, ctype, body = get(served, sparql_url(query))
        assert (status, ctype) == (200, "application/sparql-results+json")
        assert body == dumps_body(execute_select(store, parse_query(query)).to_json_dict())

    @pytest.mark.parametrize("answer", [True, False])
    def test_ask_over_http(self, served, answer):
        pattern = "?s ?p ?o" if answer else f"?s <{EX}absent> ?o"
        _, _, body = get(served, sparql_url(f"ASK {{ {pattern} }}"))
        assert body == dumps_body({"head": {}, "boolean": answer})


# ---------------------------------------------------------------------------
# /export: certified files as stored, any other graph serialized
# ---------------------------------------------------------------------------


def get_twice(server, path) -> list[bytes]:
    """The bodies of two requests for ``path`` on one connection."""
    conn = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        bodies = []
        for _ in range(2):
            conn.request("GET", path)
            response = conn.getresponse()
            assert response.status == 200
            bodies.append(response.read())
        return bodies
    finally:
        conn.close()


def strip_digests(store_dir: Path, graphs=None) -> None:
    """Remove the ``sha256`` key of ``graphs`` (every graph when None),
    as in a manifest persisted before digests were recorded."""
    path = store_dir / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for graph, entry in doc["graphs"].items():
        if graphs is None or graph in graphs:
            del entry["sha256"]
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestExport:
    def test_export_is_the_stored_file_and_the_canonical_text(self, served):
        stored = (served.store_dir / "graphs" / "2014-05.nq").read_bytes()
        assert stored == serialize_nquads(served.snapshot.store.triples(G1), G1).encode()
        assert get_twice(served, "/export/2014/05") == [stored, stored]

    def test_a_certified_file_is_sent_without_serializing(self, served, monkeypatch):
        def refuse(*args):
            raise AssertionError("a certified graph was serialized")

        monkeypatch.setattr(endpoint, "serialize_nquads", refuse)
        stored = (served.store_dir / "graphs" / "2014-06.nq").read_bytes()
        with serving(served.store_dir) as server:
            assert get_twice(server, "/export/2014/06") == [stored, stored]

    def test_the_snapshot_is_exported_after_the_store_moves_on(self, tmp_path):
        store_dir = tmp_path / "store"
        persist_triples(store_dir, "bc")
        before = (store_dir / "graphs" / "2014-05.nq").read_bytes()
        with serving(store_dir) as server:
            # Same size, other content.
            persist_triples(store_dir, "de")
            after = (store_dir / "graphs" / "2014-05.nq").read_bytes()
            assert len(after) == len(before) and after != before
            assert get_twice(server, "/export/2014/05") == [before, before]
            server.refresh()
            assert get_twice(server, "/export/2014/05") == [after, after]

    def test_a_manifest_without_digests_exports_the_same_bytes(self, served, tmp_path):
        store_dir = tmp_path / "store"
        shutil.copytree(served.store_dir, store_dir)
        strip_digests(store_dir)
        assert Store.load(store_dir).open_certified(G1) is None
        with serving(store_dir) as server:
            for path in ("/export/2014/05", "/export/2014/06"):
                assert get_twice(server, path) == get_twice(served, path)

    def test_a_day_partitioned_month_is_its_day_graphs_in_iri_order(self, tmp_path):
        days = [Iri(f"{EX}graphs/2014/05/{day}") for day in ("30", "02", "17")]
        store = Store()
        for n, graph in enumerate(days):
            store.load_quads(
                [Quad(Triple(iri(f"d{n}"), iri("p"), Literal(f"v{k}")), graph) for k in range(n + 1)]
            )
        store.load_quads([Quad(Triple(iri("e"), iri("p"), iri("f")), Iri(f"{EX}graphs/2014/06/01"))])
        store_dir = tmp_path / "store"
        store.persist(store_dir)
        # The 17th is uncertified, the other two days are sent as stored.
        strip_digests(store_dir, {f"{EX}graphs/2014/05/17"})
        ordered = sorted(days, key=lambda g: g.value)
        expected = b"".join(
            (store_dir / "graphs" / graph_filename(g)).read_bytes() for g in ordered
        )
        assert expected == "".join(serialize_nquads(store.triples(g), g) for g in ordered).encode()
        with serving(store_dir) as server:
            assert get_twice(server, "/export/2014/05") == [expected, expected]

    @pytest.mark.parametrize("granularity", ["month", "day"])
    @pytest.mark.parametrize("base", [EX, "https://x.org/2014/05/"])
    def test_only_that_months_graphs_are_exported(self, tmp_path, base, granularity):
        # A base that itself looks like a month must not pull in the
        # graphs of every other month minted under it.
        mint = MintConfig(Iri(base), granularity)
        graphs = [mint_graph_iri(mint, date(2014, month, 5)) for month in range(5, 11)]
        store = Store()
        store.load_quads(Quad(Triple(iri("d"), iri("p"), Literal(g.value)), g) for g in graphs)
        store.persist(tmp_path / "store")
        may = serialize_nquads(store.triples(graphs[0]), graphs[0]).encode()
        with serving(tmp_path / "store") as server:
            assert get_twice(server, "/export/2014/5") == [may, may]

    def test_a_body_short_of_its_length_closes_the_connection(self, served, monkeypatch):
        open_certified = Store.open_certified

        def overstated(store, graph):
            f, size = open_certified(store, graph)
            return f, size + 100

        monkeypatch.setattr(Store, "open_certified", overstated)
        with serving(served.store_dir) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                conn.request("GET", "/export/2014/05")
                response = conn.getresponse()
                with pytest.raises(http.client.IncompleteRead):
                    response.read()
            finally:
                conn.close()


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


def child_pids() -> set[int]:
    """This process's children, whichever of its threads forked them."""
    pids: set[int] = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        with contextlib.suppress(FileNotFoundError):
            pids.update(int(p) for p in (task / "children").read_text().split())
    return pids


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def dead(pid: int) -> bool:
    """Exited, whether or not its parent has reaped it yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def persist_triples(store_dir: Path, objects: str) -> None:
    """Persist ``a p o`` for each letter ``o`` of ``objects``."""
    store = Store()
    store.load_quads([Quad(Triple(iri("a"), iri("p"), iri(o)), G1) for o in objects])
    store.persist(store_dir)


def total_triples(conn: http.client.HTTPConnection) -> int:
    conn.request("GET", "/stats")
    response = conn.getresponse()
    assert response.status == 200
    return json.loads(response.read())["total_triples"]


def bounded(call, seconds: float = 10.0) -> None:
    """Run ``call`` in a thread and fail if it has not returned in time."""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"{call} did not return within {seconds} s"


def holders(pids: set[int], server_port: int, conn: http.client.HTTPConnection) -> set[int]:
    """The processes among ``pids`` that hold the server's end of
    ``conn``: the socket from the server's port to the client's, found by
    its inode in ``/proc/net/tcp``."""
    client_port = conn.sock.getsockname()[1]
    for line in Path("/proc/net/tcp").read_text().splitlines()[1:]:
        fields = line.split()
        local, remote, inode = fields[1], fields[2], fields[9]
        if int(local.split(":")[1], 16) == server_port and int(remote.split(":")[1], 16) == client_port:
            break
    else:
        raise AssertionError(f"no server socket for client port {client_port}")
    held = set()
    for pid in pids:
        for fd in Path(f"/proc/{pid}/fd").iterdir():
            with contextlib.suppress(FileNotFoundError):
                if os.readlink(fd) == f"socket:[{inode}]":
                    held.add(pid)
    return held


needs_proc_children = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children",
)


class TestWorkerPool:
    def test_stop_is_safe_in_every_state(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        never_started = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        never_started.refresh()
        bounded(never_started.stop)

        started = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        started.start()
        started.refresh()
        bounded(started.stop)

        idle = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        idle.refresh()
        idle.start()
        conn = http.client.HTTPConnection(*idle.address, timeout=10)
        try:
            assert total_triples(conn) == 1
            bounded(idle.stop)
        finally:
            conn.close()

    def test_stop_returns_promptly(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        server.start()
        try:
            assert get(server, "/stats")[0] == 200
            started = time.monotonic()
            bounded(server.stop)
            assert time.monotonic() - started < 0.25
        finally:
            server.stop()

    def test_503_closes_the_connection_and_a_refresh_serves(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as raw:
                raw.sendall(b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n")
                reply = b""
                # A worker without a snapshot closes the connection
                # after its answer; a kept-alive one would time out.
                while chunk := raw.recv(4096):
                    reply += chunk
            head = reply.split(b"\r\n\r\n")[0].split(b"\r\n")
            assert head[0].startswith(b"HTTP/1.1 503 ")
            assert b"Connection: close" in head
            server.refresh()
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                assert total_triples(conn) == 1
            finally:
                conn.close()
        finally:
            server.stop()

    def test_a_connection_keeps_the_snapshot_it_was_accepted_under(self, tmp_path):
        store_dir = tmp_path / "store"
        persist_triples(store_dir, "b")
        server = EndpointServer(store_dir, "127.0.0.1", 0)
        server.refresh()
        server.start()
        old = http.client.HTTPConnection(*server.address, timeout=10)
        new = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            assert total_triples(old) == 1
            persist_triples(store_dir, "bc")
            server.refresh()
            assert total_triples(new) == 2
            assert total_triples(old) == 1
            assert total_triples(new) == 2
        finally:
            old.close()
            new.close()
            server.stop()

    @needs_proc_children
    def test_stop_leaves_no_worker(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        before = child_pids()
        server.start()
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            assert total_triples(conn) == 1
            server.refresh()  # a second generation; the first holds conn
            workers = child_pids() - before
            assert workers
            bounded(server.stop)
        finally:
            conn.close()
        assert [pid for pid in workers if not gone(pid)] == []

    @needs_proc_children
    def test_a_retired_generation_exits_beside_another_server(self, tmp_path):
        # The other server's workers fork later and inherit this
        # server's ends of its socketpairs.
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        other = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        other.refresh()
        before = child_pids()
        server.start()
        retired = child_pids() - before
        other.start()
        try:
            server.refresh()
            deadline = time.monotonic() + 10
            while not all(dead(pid) for pid in retired):
                assert time.monotonic() < deadline, "the retired workers did not exit"
                time.sleep(0.05)
        finally:
            other.stop()
            server.stop()

    @needs_proc_children
    def test_a_killed_worker_is_replaced(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        before = child_pids()
        server.start()
        try:
            workers = child_pids() - before
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not dead(victim):
                assert time.monotonic() < deadline, "the killed worker did not exit"
                time.sleep(0.01)
            for _ in range(2 * len(workers) + 1):
                status, _, body = get(server, "/stats")
                assert status == 200
                assert json.loads(body)["total_triples"] == 1
            now = child_pids() - before
            assert victim not in now
            assert len(now) == len(workers)
        finally:
            server.stop()

    @needs_proc_children
    def test_a_killed_worker_is_replaced_with_no_request_sent(self, tmp_path):
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        before = child_pids()
        server.start()
        try:
            workers = child_pids() - before
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not gone(victim) or len(child_pids() - before) != len(workers):
                assert time.monotonic() < deadline, "the killed worker was not replaced"
                time.sleep(0.01)
            assert victim not in child_pids()
        finally:
            server.stop()

    @needs_proc_children
    @pytest.mark.skipif(not Path("/proc/net/tcp").exists(), reason="needs /proc/net/tcp")
    def test_two_kept_alive_connections_after_a_probe_go_to_two_workers(self, tmp_path):
        # The benchmark's query mix: one probe connection, then two
        # kept-alive streams that should not share a worker's lock.
        persist_triples(tmp_path / "store", "b")
        server = EndpointServer(tmp_path / "store", "127.0.0.1", 0)
        server.refresh()
        before = child_pids()
        server.start()
        streams = [http.client.HTTPConnection(*server.address, timeout=10) for _ in range(2)]
        try:
            workers = child_pids() - before
            if len(workers) < 2:
                pytest.skip("a pool of one worker")
            assert get(server, "/stats")[0] == 200
            for conn in streams:
                assert total_triples(conn) == 1
            first, second = (holders(workers, server.address[1], conn) for conn in streams)
            assert len(first) == len(second) == 1
            assert first != second
        finally:
            for conn in streams:
                conn.close()
            server.stop()

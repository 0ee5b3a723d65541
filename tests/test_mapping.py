"""Mapping rule parser and evaluator tests.

BGP evaluation is checked two ways: hand-worked cases with frozen
expectations, and randomized comparison against the brute-force oracle
in tests/oracle.py.  Rule application over the record fixtures is
compared byte for byte against hand-instantiated golden files.
"""

from __future__ import annotations

from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kgforge.jsonld import RawRecord, load_default_context, parse_payload, to_rdf
from kgforge.mapping import (
    UNBOUND,
    BindClause,
    Constant,
    FnCall,
    MappingRule,
    RuleParseError,
    TriplePattern,
    Variable,
    VariableRef,
    apply_rule,
    eval_bgp,
    eval_expression,
    extend,
    load_rule_pack,
    parse_rule,
    plan,
    plan_from,
)
from kgforge.rdf import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Triple,
    lang_literal,
    serialize_ntriples,
)

from . import oracle

GOLDENS = Path(__file__).parent / "goldens"

EX = "http://example.org/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


def rule(text: str) -> MappingRule:
    return parse_rule(text, name="test")


def fixture_graph(filename: str) -> Graph:
    payload = parse_payload((GOLDENS / filename).read_text(encoding="utf-8"))
    rec = RawRecord(
        source_id="10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman",
        submission_date=date(2014, 5, 17),
        payload=payload,
        fetched_at=datetime(2025, 7, 1, 12, 0, 0),
    )
    return to_rdf(rec, load_default_context())


def solution_set(graph: Graph, patterns) -> set[frozenset]:
    return {frozenset(sol.items()) for sol in eval_bgp(graph, plan(patterns))}


class TestParseShippedRules:
    def test_pack_loads_and_passes_the_vocabulary_gate(self):
        pack = load_rule_pack()
        assert [r.name for r in pack] == [
            "dataset.rq",
            "creator.rq",
            "study.rq",
            "substance.rq",
        ]

    def test_dataset_rule_shape(self):
        dataset = load_rule_pack()[0]
        assert len(dataset.template) == 11
        assert len(dataset.where) == 11
        assert [b.variable for b in dataset.binds] == [
            "descriptionNode",
            "identifierNode",
            "nameNode",
            "urlNode",
        ]
        assert set(dataset.prefixes) == {"schema", "nfdicore", "obo"}

    def test_dataset_rule_binds_mint_under_nodes(self):
        for bind in load_rule_pack()[0].binds:
            expr = bind.expression
            assert isinstance(expr, FnCall) and expr.fn == "IRI"
            concat = expr.args[0]
            assert isinstance(concat, FnCall) and concat.fn == "CONCAT"
            base = concat.args[0]
            assert isinstance(base, Constant)
            assert base.term.lexical.endswith("/nodes/")

    def test_every_rule_constrains_its_sources_by_type(self):
        # Each WHERE block anchors on at least one rdf:type pattern so
        # rules never fire on stray property triples.
        for r in load_rule_pack():
            typed = [p for p in r.where if p.predicate == Iri(RDF_TYPE)]
            assert typed, r.name


class TestParseBasics:
    def test_identity_rule(self):
        r = rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }")
        assert r.template == (TriplePattern(Variable("s"), Variable("p"), Variable("o")),)
        assert r.where == r.template
        assert r.binds == ()

    def test_a_expands_to_rdf_type(self):
        r = rule(f"CONSTRUCT {{ ?s a <{EX}C> }} WHERE {{ ?s a <{EX}D> }}")
        assert r.template[0].predicate == Iri(RDF_TYPE)
        assert r.where[0].predicate == Iri(RDF_TYPE)

    def test_semicolon_and_comma_abbreviations(self):
        r = rule(
            f"CONSTRUCT {{ ?s <{EX}out> ?o }} "
            f"WHERE {{ ?s <{EX}p> ?o , ?o2 ; <{EX}q> ?o3 . }}"
        )
        assert len(r.where) == 3
        assert all(p.subject == Variable("s") for p in r.where)

    def test_trailing_semicolon_tolerated(self):
        r = rule(f"CONSTRUCT {{ ?s ?p ?o }} WHERE {{ ?s ?p ?o ; }}")
        assert len(r.where) == 1

    def test_final_dot_optional(self):
        r = rule(f"CONSTRUCT {{ ?s <{EX}p> ?o }} WHERE {{ ?s <{EX}p> ?o }}")
        assert len(r.where) == 1

    def test_prefixed_names_and_comments(self):
        r = rule(
            "# header comment\n"
            f"PREFIX ex: <{EX}>\n"
            "CONSTRUCT { ?s ex:out ?o }  # inline\n"
            "WHERE { ?s ex:in ?o }\n"
        )
        assert r.template[0].predicate == ex("out")
        assert r.where[0].predicate == ex("in")

    def test_prefix_sharing_a_keyword_spelling_is_not_a_keyword(self):
        # A prefix happening to be named like a rejected SPARQL feature
        # must still parse as a plain prefixed name.
        r = rule(
            f"PREFIX filter: <{EX}>\n"
            "CONSTRUCT { ?s filter:p ?o } WHERE { ?s filter:p ?o }"
        )
        assert r.where[0].predicate == ex("p")

    def test_keywords_are_case_insensitive(self):
        r = rule(
            f"prefix ex: <{EX}>\n"
            "construct { ?s ex:p ?node } "
            "where { ?s ex:q ?v . bind(iri(concat(?v)) as ?node) }"
        )
        assert r.binds[0].variable == "node"

    def test_blank_node_labels(self):
        r = rule(f"CONSTRUCT {{ _:x <{EX}p> ?o }} WHERE {{ _:x <{EX}p> ?o }}")
        assert r.template[0].subject == r.where[0].subject

    def test_object_literals_with_language_and_datatype(self):
        r = rule(
            f"CONSTRUCT {{ ?s <{EX}p> ?o }} "
            f'WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> "x"@de . ?s <{EX}r> "5"^^<{EX}t> }}'
        )
        objects = [p.object for p in r.where]
        assert lang_literal("x", "de") in objects
        assert Literal("5", ex("t")) in objects

    def test_bind_referencing_earlier_bind(self):
        r = rule(
            f"CONSTRUCT {{ ?s <{EX}p> ?b }} "
            f"WHERE {{ ?s <{EX}q> ?v . "
            f'BIND(CONCAT(?v, "-x") AS ?a) BIND(IRI(?a) AS ?b) }}'
        )
        assert [b.variable for b in r.binds] == ["a", "b"]


UNSUPPORTED_SNIPPETS = [
    ("?s ?p ?o . FILTER(?o > 1)", "FILTER"),
    ("OPTIONAL { ?s ?p ?o }", "OPTIONAL"),
    ("?s ?p ?o . UNION", "UNION"),
    ("?s ?p ?o . MINUS { ?s ?p ?o }", "MINUS"),
    ("GRAPH ?g { ?s ?p ?o }", "GRAPH"),
    ("SERVICE <http://example.org/sparql> { ?s ?p ?o }", "SERVICE"),
    ("VALUES ?s { <http://example.org/a> }", "VALUES"),
    ("SELECT ?s { ?s ?p ?o }", "SELECT"),
    ("EXISTS { ?s ?p ?o }", "EXISTS"),
    ("{ ?s ?p ?o } UNION { ?s ?p ?o }", "nested group"),
    ("?s <http://example.org/p>/<http://example.org/q> ?o", "property path"),
    ("?s <http://example.org/p>|<http://example.org/q> ?o", "property path"),
    ("?s <http://example.org/p>* ?o", "property path"),
    ("?s <http://example.org/p>+ ?o", "property path"),
    ("[ <http://example.org/p> ?o ]", "blank node property list"),
    ("?s <http://example.org/p> ( ?a ?b )", "collection"),
]


class TestParseRejections:
    @pytest.mark.parametrize("snippet,feature", UNSUPPORTED_SNIPPETS)
    def test_unsupported_features_named(self, snippet, feature):
        with pytest.raises(RuleParseError, match=feature):
            rule("CONSTRUCT { ?s ?p ?o } WHERE { " + snippet + " }")

    def test_unknown_prefix_named(self):
        with pytest.raises(RuleParseError, match="foaf"):
            rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s foaf:name ?o }")

    def test_unknown_function_named(self):
        with pytest.raises(RuleParseError, match="LCASE"):
            rule(
                "CONSTRUCT { ?s ?p ?node } "
                "WHERE { ?s ?p ?o . BIND(LCASE(?o) AS ?node) }"
            )

    def test_concat_needs_an_argument(self):
        with pytest.raises(RuleParseError, match="CONCAT"):
            rule(
                "CONSTRUCT { ?s ?p ?node } "
                "WHERE { ?s ?p ?o . BIND(CONCAT() AS ?node) }"
            )

    def test_str_takes_exactly_one_argument(self):
        with pytest.raises(RuleParseError, match="one argument"):
            rule(
                "CONSTRUCT { ?s ?p ?node } "
                "WHERE { ?s ?p ?o . BIND(STR(?o, ?o) AS ?node) }"
            )

    def test_literal_subject_rejected(self):
        with pytest.raises(RuleParseError, match="subject"):
            rule('CONSTRUCT { ?s ?p ?o } WHERE { "lit" ?p ?o }')

    def test_literal_predicate_rejected(self):
        with pytest.raises(RuleParseError, match="predicate"):
            rule('CONSTRUCT { ?s ?p ?o } WHERE { ?s "lit" ?o }')

    def test_blank_node_predicate_rejected(self):
        with pytest.raises(RuleParseError, match="predicate"):
            rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s _:b ?o }")

    def test_bind_in_construct_rejected(self):
        with pytest.raises(RuleParseError, match="WHERE"):
            rule(
                f"CONSTRUCT {{ ?s <{EX}p> ?o . BIND(STR(?s) AS ?x) }} "
                "WHERE { ?s ?p ?o }"
            )

    def test_bind_reassignment_rejected(self):
        with pytest.raises(RuleParseError, match="reassigns"):
            rule(
                "CONSTRUCT { ?s ?p ?o } "
                "WHERE { ?s ?p ?o . BIND(STR(?s) AS ?o) }"
            )

    def test_bind_over_unbound_variable_rejected(self):
        with pytest.raises(RuleParseError, match="nowhere"):
            rule(
                "CONSTRUCT { ?s ?p ?node } "
                "WHERE { ?s ?p ?o . BIND(STR(?nowhere) AS ?node) }"
            )

    def test_template_variable_without_source_rejected(self):
        with pytest.raises(RuleParseError, match="ghost"):
            rule("CONSTRUCT { ?s ?p ?ghost } WHERE { ?s ?p ?o }")

    def test_trailing_content_rejected(self):
        with pytest.raises(RuleParseError, match="after WHERE"):
            rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o } LIMIT 5")

    def test_missing_construct_rejected(self):
        with pytest.raises(RuleParseError, match="CONSTRUCT"):
            rule("WHERE { ?s ?p ?o }")

    def test_prefix_declaration_must_end_with_colon(self):
        with pytest.raises(RuleParseError, match="':'"):
            rule(f"PREFIX ex:tail <{EX}> CONSTRUCT {{ ?s ?p ?o }} WHERE {{ ?s ?p ?o }}")

    def test_unterminated_block_rejected(self):
        with pytest.raises(RuleParseError, match="unterminated"):
            rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o")

    def test_errors_carry_positions(self):
        try:
            rule("CONSTRUCT { ?s ?p ?o }\nWHERE { OPTIONAL { ?s ?p ?o } }")
        except RuleParseError as exc:
            assert exc.line == 2
            assert "line 2" in str(exc)
        else:
            pytest.fail("expected RuleParseError")


# Strategies over the oracle's small term universe keep join products
# tractable while still exercising shared, repeated and ground terms.
_variables = st.builds(Variable, st.sampled_from(oracle.VARIABLE_NAMES))
_triples = st.builds(
    Triple,
    st.sampled_from(oracle.SUBJECTS),
    st.sampled_from(oracle.PREDICATES),
    st.sampled_from(oracle.OBJECTS),
)
_graphs = st.builds(Graph, st.sets(_triples, max_size=30))
_patterns = st.builds(
    TriplePattern,
    st.one_of(_variables, st.sampled_from(oracle.SUBJECTS)),
    st.one_of(_variables, st.sampled_from(oracle.PREDICATES)),
    st.one_of(_variables, st.sampled_from(oracle.OBJECTS)),
)
_bgps = st.lists(_patterns, min_size=1, max_size=3)


class TestEvalBgp:
    def test_empty_pattern_list_has_one_empty_solution(self):
        assert eval_bgp(Graph(), plan([])) == [{}]
        assert eval_bgp(Graph([Triple(ex("s"), ex("p"), ex("o"))]), plan([])) == [{}]

    def test_ground_pattern_present(self):
        g = Graph([Triple(ex("s"), ex("p"), ex("o"))])
        assert eval_bgp(g, plan([TriplePattern(ex("s"), ex("p"), ex("o"))])) == [{}]

    def test_ground_pattern_absent(self):
        g = Graph([Triple(ex("s"), ex("p"), ex("o"))])
        assert eval_bgp(g, plan([TriplePattern(ex("s"), ex("p"), ex("other"))])) == []

    def test_two_pattern_join(self):
        g = Graph(
            [
                Triple(ex("d1"), ex("creator"), ex("ada")),
                Triple(ex("d2"), ex("creator"), ex("grace")),
                Triple(ex("ada"), ex("name"), Literal("Ada")),
            ]
        )
        patterns = [
            TriplePattern(Variable("d"), ex("creator"), Variable("c")),
            TriplePattern(Variable("c"), ex("name"), Variable("n")),
        ]
        assert solution_set(g, patterns) == {
            frozenset(
                {("d", ex("d1")), ("c", ex("ada")), ("n", Literal("Ada"))}
            )
        }

    def test_repeated_variable_forces_equality(self):
        g = Graph(
            [
                Triple(ex("a"), ex("p"), ex("a")),
                Triple(ex("a"), ex("p"), ex("b")),
            ]
        )
        solutions = eval_bgp(g, plan([TriplePattern(Variable("x"), ex("p"), Variable("x"))]))
        assert solutions == [{"x": ex("a")}]

    def test_cartesian_product_of_disjoint_patterns(self):
        g = Graph(
            [
                Triple(ex("a"), ex("p"), Literal("1")),
                Triple(ex("b"), ex("p"), Literal("2")),
                Triple(ex("c"), ex("q"), Literal("3")),
            ]
        )
        patterns = [
            TriplePattern(Variable("x"), ex("p"), Variable("vx")),
            TriplePattern(Variable("y"), ex("q"), Variable("vy")),
        ]
        assert len(eval_bgp(g, plan(patterns))) == 2

    @given(_graphs, _bgps)
    def test_agrees_with_bruteforce_oracle(self, graph, patterns):
        solutions = eval_bgp(graph, plan(patterns))
        unique = {frozenset(sol.items()) for sol in solutions}
        assert len(unique) == len(solutions)
        assert unique == oracle.eval_bgp_bruteforce(graph, patterns)

    @given(_graphs, _bgps, st.randoms(use_true_random=False))
    def test_pattern_order_is_irrelevant(self, graph, patterns, rng):
        shuffled = list(patterns)
        rng.shuffle(shuffled)
        assert solution_set(graph, patterns) == solution_set(graph, shuffled)


class TestPlanRoles:
    """Each step's ``(constants, joined, new, repeats)``."""

    def test_repeated_variable_is_new_then_a_repeat(self):
        (step,) = plan([TriplePattern(Variable("x"), ex("p"), Variable("x"))])
        assert step == ((None, ex("p"), None), (), ((0, "x"),), ((2, "x"),))

    def test_one_variable_across_three_patterns_is_joined_after_the_first(self):
        steps = plan(
            [
                TriplePattern(Variable("x"), ex("p"), ex("a")),
                TriplePattern(Variable("x"), ex("q"), Variable("y")),
                TriplePattern(ex("b"), ex("r"), Variable("x")),
            ]
        )
        # Most-bound first: the first and third patterns have two
        # constants each, and the tie goes to the first of them.
        assert steps == (
            ((None, ex("p"), ex("a")), (), ((0, "x"),), ()),
            ((ex("b"), ex("r"), None), ((2, "x"),), (), ()),
            ((None, ex("q"), None), ((0, "x"),), ((2, "y"),), ()),
        )

    def test_all_constant_pattern_has_no_slots(self):
        (step,) = plan([TriplePattern(ex("s"), ex("p"), ex("o"))])
        assert step == ((ex("s"), ex("p"), ex("o")), (), (), ())

    def test_a_repeat_of_a_joined_variable_is_joined_twice(self):
        steps = plan(
            [
                TriplePattern(Variable("x"), ex("p"), ex("a")),
                TriplePattern(Variable("x"), ex("q"), Variable("x")),
            ]
        )
        assert steps[1] == ((None, ex("q"), None), ((0, "x"), (2, "x")), (), ())

    def test_plan_from_joins_the_given_variables_from_the_first_step(self):
        g = Graph(
            [
                Triple(ex("a"), ex("p"), ex("b")),
                Triple(ex("a"), ex("p"), ex("c")),
                Triple(ex("d"), ex("p"), ex("e")),
            ]
        )
        steps = plan_from({"x"}, [TriplePattern(Variable("x"), ex("p"), Variable("y"))])
        assert steps == (((None, ex("p"), None), ((0, "x"),), ((2, "y"),), ()),)
        extensions = extend(g, steps, [{"x": ex("a")}])
        assert sorted(extensions, key=lambda sol: sol["y"].value) == [
            {"x": ex("a"), "y": ex("b")},
            {"x": ex("a"), "y": ex("c")},
        ]
        assert extend(g, steps, [{"x": ex("zzz")}]) == []


class TestEvalExpression:
    def test_minting_chain(self):
        expr = FnCall(
            "IRI",
            (
                FnCall(
                    "CONCAT",
                    (
                        Constant(Literal(EX + "nodes/")),
                        FnCall("ENCODE_FOR_URI", (VariableRef("name"),)),
                    ),
                ),
            ),
        )
        out = eval_expression(expr, {"name": Literal("a b")})
        assert out == Iri(EX + "nodes/a%20b")

    def test_constant_passes_through(self):
        assert eval_expression(Constant(ex("x")), {}) == ex("x")

    def test_missing_variable_is_unbound(self):
        assert eval_expression(VariableRef("nope"), {}) is UNBOUND

    def test_unbound_propagates_through_calls(self):
        expr = FnCall("CONCAT", (Constant(Literal("x")), VariableRef("nope")))
        assert eval_expression(expr, {}) is UNBOUND

    def test_str_of_iri(self):
        assert eval_expression(
            FnCall("STR", (VariableRef("v"),)), {"v": ex("thing")}
        ) == Literal(EX + "thing")

    def test_str_strips_datatype(self):
        binding = {"v": Literal("156.19", Iri("http://www.w3.org/2001/XMLSchema#decimal"))}
        assert eval_expression(FnCall("STR", (VariableRef("v"),)), binding) == Literal(
            "156.19"
        )

    def test_concat_joins_lexical_forms(self):
        expr = FnCall(
            "CONCAT",
            (
                Constant(Literal("a")),
                Constant(Literal("1", Iri("http://www.w3.org/2001/XMLSchema#integer"))),
            ),
        )
        assert eval_expression(expr, {}) == Literal("a1")

    def test_concat_of_iri_is_unbound(self):
        expr = FnCall("CONCAT", (Constant(ex("x")),))
        assert eval_expression(expr, {}) is UNBOUND

    def test_encode_for_uri_of_iri_is_unbound(self):
        expr = FnCall("ENCODE_FOR_URI", (Constant(ex("x")),))
        assert eval_expression(expr, {}) is UNBOUND

    def test_iri_of_iri_passes_through(self):
        assert eval_expression(FnCall("IRI", (Constant(ex("x")),)), {}) == ex("x")

    def test_iri_of_malformed_literal_is_unbound(self):
        assert (
            eval_expression(FnCall("IRI", (Constant(Literal("no scheme")),)), {})
            is UNBOUND
        )


class TestApplyRule:
    identity = parse_rule("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", name="identity")

    def test_identity_rule_reproduces_the_graph(self):
        g = Graph(
            [
                Triple(ex("a"), ex("p"), Literal("x")),
                Triple(ex("b"), ex("q"), ex("a")),
            ]
        )
        assert apply_rule(g, self.identity) == g

    def test_empty_graph_yields_empty_output(self):
        assert apply_rule(Graph(), self.identity) == Graph()

    def test_dataset_rule_fixture_matches_hand_instantiated_golden(self):
        source = fixture_graph("dataset_rule_fixture.json")
        dataset = load_rule_pack()[0]
        out = apply_rule(source, dataset)
        expected = (GOLDENS / "dataset_rule_golden.nt").read_text(encoding="utf-8")
        assert serialize_ntriples(out) == expected

    def test_unbound_bind_skips_only_the_affected_triples(self):
        r = rule(
            f"CONSTRUCT {{ ?s a <{EX}C> . ?s <{EX}link> ?node }} "
            f"WHERE {{ ?s <{EX}p> ?v . BIND(IRI(?v) AS ?node) }}"
        )
        g = Graph([Triple(ex("s"), ex("p"), Literal("not an iri"))])
        assert apply_rule(g, r) == Graph([Triple(ex("s"), Iri(RDF_TYPE), ex("C"))])

    def test_ill_typed_template_triples_are_skipped(self):
        # ?v binds to a literal, which cannot be a subject.
        r = rule(
            f"CONSTRUCT {{ ?v a <{EX}C> . ?s a <{EX}D> }} "
            f"WHERE {{ ?s <{EX}p> ?v }}"
        )
        g = Graph([Triple(ex("s"), ex("p"), Literal("lit"))])
        assert apply_rule(g, r) == Graph([Triple(ex("s"), Iri(RDF_TYPE), ex("D"))])

    def test_variable_predicate_bound_to_literal_is_skipped(self):
        r = rule(f"CONSTRUCT {{ ?s ?v <{EX}o> }} WHERE {{ ?s <{EX}p> ?v }}")
        g = Graph([Triple(ex("s"), ex("p"), Literal("lit"))])
        assert apply_rule(g, r) == Graph()

    join_rule = parse_rule(
        f"CONSTRUCT {{ ?s <{EX}out> ?o2 }} "
        f"WHERE {{ ?s <{EX}p0> ?o . ?o <{EX}p1> ?o2 }}",
        name="join",
    )

    @given(_graphs, _graphs)
    def test_output_grows_monotonically_with_input(self, g1, g2):
        small = apply_rule(g1, self.join_rule)
        large = apply_rule(g1.union(g2), self.join_rule)
        assert set(small) <= set(large)


def apply_pack(graph: Graph, rules) -> Graph:
    """Every rule applied to *graph* alone, as ``transform_record`` does."""
    return Graph().union(t for rule in rules for t in apply_rule(graph, rule))


class TestApplyRulePack:
    def test_integrated_fixture_matches_hand_instantiated_golden(self):
        source = fixture_graph("integrated_record.json")
        assert len(source) == 27
        out = apply_pack(source, load_rule_pack())
        expected = (GOLDENS / "integrated_golden.nt").read_text(encoding="utf-8")
        assert serialize_ntriples(out) == expected

    def test_rule_order_does_not_matter(self):
        source = fixture_graph("integrated_record.json")
        pack = load_rule_pack()
        assert apply_pack(source, pack) == apply_pack(source, tuple(reversed(pack)))

    def test_pack_does_not_fire_on_its_own_output(self):
        # The rules consume schema.org terms and produce ontology terms,
        # so a second pass over the output must be empty, not an echo.
        source = fixture_graph("integrated_record.json")
        out = apply_pack(source, load_rule_pack())
        assert apply_pack(out, load_rule_pack()) == Graph()

    def test_rules_see_the_source_not_each_other(self):
        chain = (
            rule(f"CONSTRUCT {{ ?s a <{EX}B> }} WHERE {{ ?s a <{EX}A> }}"),
            rule(f"CONSTRUCT {{ ?s a <{EX}C> }} WHERE {{ ?s a <{EX}B> }}"),
        )
        g = Graph([Triple(ex("s"), Iri(RDF_TYPE), ex("A"))])
        out = apply_pack(g, chain)
        assert Triple(ex("s"), Iri(RDF_TYPE), ex("B")) in out
        assert Triple(ex("s"), Iri(RDF_TYPE), ex("C")) not in out

"""Validator tests: shape constraints on hand graphs, pattern rules with
shared-binding semantics, and the seeded-fault fixtures derived from the
integrated golden graph."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kgforge.mapping import TriplePattern, Variable
from kgforge.rdf import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_ntriples,
    term_sort_key,
)
from kgforge.validation import (
    PatternRule,
    PropertyConstraint,
    Shape,
    load_patterns,
    load_shapes,
    parse_patterns,
    parse_shapes,
    validate,
    validate_patterns,
    validate_shapes,
)
from kgforge.vocab import UnknownTermError, load_table

GOLDENS = Path(__file__).parent / "goldens"
EX = "http://example.org/"
OBO = "http://purl.obolibrary.org/obo/"
NFDICORE = "https://nfdi.fiz-karlsruhe.de/ontology/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


def typed(subject: Iri, cls: Iri) -> Triple:
    return Triple(subject, Iri(RDF_TYPE), cls)


GOLDEN_GRAPH = parse_ntriples(
    (GOLDENS / "integrated_golden.nt").read_text(encoding="utf-8")
)


def fault_graph(name: str) -> Graph:
    return parse_ntriples(
        (GOLDENS / "faults" / name).read_text(encoding="utf-8")
    )


class TestConstraintInvariants:
    def test_negative_min_count(self):
        with pytest.raises(ValueError, match="min_count"):
            PropertyConstraint(path=ex("p"), min_count=-1)

    def test_max_below_min(self):
        with pytest.raises(ValueError, match="max_count"):
            PropertyConstraint(path=ex("p"), min_count=2, max_count=1)

    def test_unknown_value_kind(self):
        with pytest.raises(ValueError, match="value_kind"):
            PropertyConstraint(path=ex("p"), value_kind="number")

    def test_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            PropertyConstraint(path=ex("p"), severity="fatal")

    def test_pattern_rule_focus_must_be_antecedent_variable(self):
        with pytest.raises(ValueError, match="focus"):
            PatternRule(
                name="r",
                antecedent=(TriplePattern(Variable("s"), ex("p"), Variable("o")),),
                consequent=(TriplePattern(Variable("s"), ex("q"), Variable("fresh")),),
                focus="fresh",
                message="m",
            )

    def test_pattern_rule_blocks_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            PatternRule(name="r", antecedent=(), consequent=(), focus="s", message="m")


class TestValidateShapes:
    cls = Iri(EX + "Dataset")
    shape = Shape(
        name="thing",
        target_class=cls,
        constraints=(
            PropertyConstraint(path=ex("creator"), min_count=1, value_kind="iri"),
        ),
    )

    def test_empty_graph_conforms(self):
        report = validate_shapes(Graph(), [self.shape])
        assert report.conforms and report.findings == ()

    def test_non_targets_are_ignored(self):
        g = Graph([Triple(ex("x"), ex("p"), Literal("1"))])
        assert validate_shapes(g, [self.shape]).conforms

    def test_min_count_violation_names_the_focus(self):
        g = Graph([typed(ex("d1"), self.cls)])
        report = validate_shapes(g, [self.shape])
        assert not report.conforms
        (finding,) = report.findings
        assert finding.focus == ex("d1")
        assert finding.source == "thing"
        assert "at least 1" in finding.message
        assert finding.severity == "violation"

    def test_satisfied_min_count(self):
        g = Graph([typed(ex("d1"), self.cls), Triple(ex("d1"), ex("creator"), ex("a"))])
        assert validate_shapes(g, [self.shape]).conforms

    def test_max_count_violation(self):
        shape = Shape(
            "one-license",
            self.cls,
            (PropertyConstraint(path=ex("license"), max_count=1),),
        )
        g = Graph(
            [
                typed(ex("d1"), self.cls),
                Triple(ex("d1"), ex("license"), ex("l1")),
                Triple(ex("d1"), ex("license"), ex("l2")),
            ]
        )
        report = validate_shapes(g, [shape])
        assert [f.message for f in report.findings] == [
            f"has 2 <{EX}license> value(s), expected at most 1"
        ]

    def test_value_kind_iri_flags_literals(self):
        g = Graph(
            [typed(ex("d1"), self.cls), Triple(ex("d1"), ex("creator"), Literal("Ada"))]
        )
        report = validate_shapes(g, [self.shape])
        assert any("not an IRI" in f.message for f in report.findings)

    def test_value_kind_literal_flags_iris(self):
        shape = Shape(
            "technique",
            self.cls,
            (PropertyConstraint(path=ex("technique"), value_kind="literal"),),
        )
        g = Graph(
            [typed(ex("d1"), self.cls), Triple(ex("d1"), ex("technique"), ex("raman"))]
        )
        report = validate_shapes(g, [shape])
        assert [f.message for f in report.findings] == [
            f"value <{EX}raman> of <{EX}technique> is not a literal"
        ]

    def test_value_class_requires_typed_target(self):
        shape = Shape(
            "substance",
            self.cls,
            (PropertyConstraint(path=ex("part"), value_class=ex("Molecule")),),
        )
        untyped = Graph([typed(ex("d1"), self.cls), Triple(ex("d1"), ex("part"), ex("m"))])
        report = validate_shapes(untyped, [shape])
        assert any("lacks type" in f.message for f in report.findings)
        well_typed = untyped.union([typed(ex("m"), ex("Molecule"))])
        assert validate_shapes(well_typed, [shape]).conforms

    def test_warning_severity_carries_through(self):
        shape = Shape(
            "nice-to-have",
            self.cls,
            (PropertyConstraint(path=ex("image"), min_count=1, severity="warning"),),
        )
        g = Graph([typed(ex("d1"), self.cls)])
        (finding,) = validate_shapes(g, [shape]).findings
        assert finding.severity == "warning"


def _shipped(name: str) -> PatternRule:
    (rule,) = [r for r in load_patterns() if r.name == name]
    return rule


class TestValidatePatterns:
    def test_empty_graph_conforms(self):
        assert validate_patterns(Graph(), load_patterns()).conforms

    def test_role_without_bearer_is_flagged(self):
        g = Graph([Triple(ex("proc"), Iri(OBO + "BFO_0000055"), ex("role"))])
        report = validate_patterns(g, [_shipped("process-agent-role")])
        (finding,) = report.findings
        assert finding.focus == ex("role")
        assert finding.source == "process-agent-role"

    def test_satisfied_par_pattern(self):
        g = Graph(
            [
                Triple(ex("proc"), Iri(OBO + "BFO_0000055"), ex("role")),
                Triple(ex("ada"), Iri(OBO + "BFO_0000053"), ex("role")),
                Triple(ex("proc"), Iri(OBO + "BFO_0000057"), ex("ada")),
            ]
        )
        assert validate_patterns(g, [_shipped("process-agent-role")]).conforms

    def test_bearer_must_participate_in_the_same_process(self):
        # The agent bears the role but participates in a different
        # process, so the shared-binding check must still flag the role.
        g = Graph(
            [
                Triple(ex("proc"), Iri(OBO + "BFO_0000055"), ex("role")),
                Triple(ex("ada"), Iri(OBO + "BFO_0000053"), ex("role")),
                Triple(ex("other"), Iri(OBO + "BFO_0000057"), ex("ada")),
            ]
        )
        report = validate_patterns(g, [_shipped("process-agent-role")])
        assert [f.focus for f in report.findings] == [ex("role")]

    def test_datum_without_unit_is_flagged(self):
        g = Graph([typed(ex("w"), Iri(OBO + "IAO_0000109"))])
        report = validate_patterns(g, [_shipped("measurement-datum-unit")])
        assert [f.focus for f in report.findings] == [ex("w")]

    def test_datum_with_untyped_unit_is_still_flagged(self):
        g = Graph(
            [
                typed(ex("w"), Iri(OBO + "IAO_0000109")),
                Triple(ex("w"), Iri(OBO + "IAO_0000039"), ex("gmol")),
            ]
        )
        assert not validate_patterns(g, [_shipped("measurement-datum-unit")]).conforms

    def test_publishing_needs_temporal_region(self):
        g = Graph([typed(ex("pub"), Iri(NFDICORE + "NFDI_0000014"))])
        report = validate_patterns(g, [_shipped("publishing-temporal-region")])
        assert [f.source for f in report.findings] == ["publishing-temporal-region"]


class TestShippedFiles:
    def test_shapes_load_and_resolve(self):
        shapes = load_shapes()
        assert [s.name for s in shapes] == ["dataset", "person", "substance", "molecule"]
        dataset = shapes[0]
        assert dataset.target_class == Iri(NFDICORE + "NFDI_0000009")
        assert all(c.min_count == 1 for c in dataset.constraints)

    def test_patterns_load_and_resolve(self):
        patterns = load_patterns()
        assert [p.name for p in patterns] == [
            "process-agent-role",
            "measurement-datum-unit",
            "publishing-temporal-region",
        ]
        par = patterns[0]
        assert par.antecedent[0].predicate == Iri(OBO + "BFO_0000055")

    def test_image_url_node_constraint_is_a_warning(self):
        molecule = [s for s in load_shapes() if s.name == "molecule"][0]
        severities = {c.path.value: c.severity for c in molecule.constraints}
        assert severities[OBO + "IAO_0000235"] == "warning"

    def test_unknown_short_name_rejected(self):
        doc = {
            "shapes": [
                {
                    "name": "bad",
                    "target_class": "nfdicore:NFDI_9999999",
                    "constraints": [],
                }
            ]
        }
        with pytest.raises(UnknownTermError, match="NFDI_9999999"):
            parse_shapes(doc, load_table())

    def test_full_iri_outside_table_rejected(self):
        doc = {
            "patterns": [
                {
                    "name": "bad",
                    "antecedent": [["?s", "<http://elsewhere.org/p>", "?o"]],
                    "consequent": [["?s", "a", "obo:BFO_0000015"]],
                    "focus": "?s",
                    "message": "m",
                }
            ]
        }
        with pytest.raises(UnknownTermError, match="elsewhere"):
            parse_patterns(doc, load_table())

    def test_variable_cannot_name_a_class(self):
        doc = {
            "shapes": [
                {"name": "bad", "target_class": "?x", "constraints": []}
            ]
        }
        with pytest.raises(ValueError, match="class"):
            parse_shapes(doc, load_table())


class TestGoldenAndFaults:
    def test_golden_graph_conforms(self):
        report = validate(GOLDEN_GRAPH, load_shapes(), load_patterns())
        assert report.conforms, report.findings

    def test_missing_creator_fault(self):
        report = validate(fault_graph("missing_creator.nt"), load_shapes(), load_patterns())
        assert not report.conforms
        assert any(
            f.source == "dataset" and "NFDI_0001027" in f.message
            for f in report.findings
        )

    def test_role_without_bearer_fault(self):
        report = validate(
            fault_graph("role_without_bearer.nt"), load_shapes(), load_patterns()
        )
        assert any(f.source == "process-agent-role" for f in report.findings)

    def test_publishing_without_interval_fault(self):
        report = validate(
            fault_graph("publishing_without_interval.nt"), load_shapes(), load_patterns()
        )
        assert any(
            f.source == "publishing-temporal-region" for f in report.findings
        )

    def test_datum_without_unit_fault(self):
        report = validate(
            fault_graph("datum_without_unit.nt"), load_shapes(), load_patterns()
        )
        assert any(f.source == "measurement-datum-unit" for f in report.findings)

    @pytest.mark.parametrize(
        "fault",
        [
            "missing_creator.nt",
            "role_without_bearer.nt",
            "publishing_without_interval.nt",
            "datum_without_unit.nt",
        ],
    )
    def test_repairing_the_fault_clears_the_report(self, fault):
        # Each fault is the golden graph minus exactly one triple, so
        # adding the difference back must restore a clean report.
        broken = fault_graph(fault)
        missing = set(GOLDEN_GRAPH) - set(broken)
        assert len(missing) == 1
        repaired = broken.union(missing)
        assert validate(repaired, load_shapes(), load_patterns()).conforms

    def test_each_antecedent_is_joined_once(self, monkeypatch):
        from kgforge import validation

        joined = []
        original = validation.eval_bgp

        def counting(graph, steps):
            joined.append(steps)
            return original(graph, steps)

        monkeypatch.setattr(validation, "eval_bgp", counting)
        rules = load_patterns()
        report = validate_patterns(fault_graph("role_without_bearer.nt"), rules)
        assert any(f.source == "process-agent-role" for f in report.findings)
        assert len(joined) == len(rules)

    def test_findings_are_canonically_ordered(self):
        broken = Graph(
            set(fault_graph("role_without_bearer.nt"))
            & set(fault_graph("publishing_without_interval.nt"))
        )
        report = validate(broken, load_shapes(), load_patterns())
        keys = [(f.source, f.focus, f.message) for f in report.findings]
        assert len(keys) >= 2
        assert keys == sorted(keys, key=lambda k: (k[0], term_sort_key(k[1]), k[2]))


class TestReportRendering:
    def test_json_shape(self):
        report = validate(fault_graph("missing_creator.nt"), load_shapes(), load_patterns())
        doc = report.to_json_dict()
        assert doc["conforms"] is False
        assert all(
            set(f) == {"source", "focus", "message", "severity"}
            for f in doc["findings"]
        )


_golden_subsets = st.sets(st.sampled_from(sorted(GOLDEN_GRAPH, key=repr)), max_size=40)


class TestSoundness:
    @given(_golden_subsets)
    def test_findings_cite_nodes_present_in_the_graph(self, triples):
        g = Graph(triples)
        report = validate(g, load_shapes(), load_patterns())
        terms = {t.subject for t in g} | {t.object for t in g}
        for finding in report.findings:
            assert finding.focus in terms

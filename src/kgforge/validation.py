"""Shape-lite validation of transformed graphs.

Two complementary checks run over an immutable graph.  Shapes constrain
one class at a time: instance counts per property, value kinds, and the
classes of linked nodes.  Pattern rules check structural implications
that span several nodes: whenever the antecedent basic graph pattern
matches, the consequent must also match under the same bindings (fresh
consequent variables are existentials).

The shipped shape and pattern files live under ``shapes/`` and refer to
ontology terms by their vocabulary short names, so loading them fails
fast on anything outside the closed table.  Findings are canonically
ordered (rule name, focus node, message) and a report renders both as
JSON and as a plain-text table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Iterable, Iterator

from .mapping import TriplePattern, Variable, eval_bgp, extend, plan, plan_from
from .rdf import (
    RDF_TYPE,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    format_term,
    term_sort_key,
)
from .vocab import VocabTable, load_table

VALUE_KINDS = ("iri", "literal", "any")
SEVERITIES = ("violation", "warning")


@dataclass(frozen=True, slots=True)
class PropertyConstraint:
    path: Iri
    min_count: int = 0
    max_count: int | None = None
    value_kind: str = "any"
    value_class: Iri | None = None
    severity: str = "violation"

    def __post_init__(self) -> None:
        if self.min_count < 0:
            raise ValueError("min_count must be non-negative")
        if self.max_count is not None and self.max_count < self.min_count:
            raise ValueError("max_count cannot be smaller than min_count")
        if self.value_kind not in VALUE_KINDS:
            raise ValueError(f"value_kind must be one of {VALUE_KINDS}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


@dataclass(frozen=True, slots=True)
class Shape:
    name: str
    target_class: Iri
    constraints: tuple[PropertyConstraint, ...]


@dataclass(frozen=True, slots=True)
class PatternRule:
    """Whenever *antecedent* matches, *consequent* must match too."""

    name: str
    antecedent: tuple[TriplePattern, ...]
    consequent: tuple[TriplePattern, ...]
    focus: str
    message: str
    severity: str = "violation"

    def __post_init__(self) -> None:
        if not self.antecedent or not self.consequent:
            raise ValueError("antecedent and consequent must be non-empty")
        antecedent_vars = set()
        for p in self.antecedent:
            antecedent_vars |= p.variables()
        if self.focus not in antecedent_vars:
            raise ValueError(
                f"pattern rule {self.name!r}: focus ?{self.focus} "
                "is not an antecedent variable"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


@dataclass(frozen=True, slots=True)
class Finding:
    source: str
    focus: Term
    message: str
    severity: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def conforms(self) -> bool:
        return not self.findings

    def merged_with(self, other: "ValidationReport") -> "ValidationReport":
        return _report(self.findings + other.findings)

    def to_json_dict(self) -> dict:
        return {
            "conforms": self.conforms,
            "findings": [
                {
                    "source": f.source,
                    "focus": format_term(f.focus),
                    "message": f.message,
                    "severity": f.severity,
                }
                for f in self.findings
            ],
        }


def _report(findings: Iterable[Finding]) -> ValidationReport:
    ordered = sorted(
        set(findings), key=lambda f: (f.source, term_sort_key(f.focus), f.message)
    )
    return ValidationReport(findings=tuple(ordered))


# ---------------------------------------------------------------------------
# Shape validation
# ---------------------------------------------------------------------------


def validate_shapes(graph: Graph, shapes: Iterable[Shape]) -> ValidationReport:
    findings: list[Finding] = []
    for shape in shapes:
        for focus in graph.subjects_of_type(shape.target_class):
            for constraint in shape.constraints:
                findings.extend(_check_constraint(graph, shape, focus, constraint))
    return _report(findings)


def _check_constraint(
    graph: Graph, shape: Shape, focus, constraint: PropertyConstraint
) -> Iterator[Finding]:
    path = constraint.path
    values = {t.object for t in graph.match(subject=focus, predicate=path)}

    def finding(message: str) -> Finding:
        return Finding(shape.name, focus, message, constraint.severity)

    if len(values) < constraint.min_count:
        yield finding(
            f"has {len(values)} <{path.value}> value(s), "
            f"expected at least {constraint.min_count}"
        )
    if constraint.max_count is not None and len(values) > constraint.max_count:
        yield finding(
            f"has {len(values)} <{path.value}> value(s), "
            f"expected at most {constraint.max_count}"
        )
    for value in sorted(values, key=term_sort_key):
        if constraint.value_kind == "iri" and not isinstance(value, Iri):
            yield finding(f"value {format_term(value)} of <{path.value}> is not an IRI")
        elif constraint.value_kind == "literal" and not isinstance(value, Literal):
            yield finding(
                f"value {format_term(value)} of <{path.value}> is not a literal"
            )
        if constraint.value_class is not None:
            cls = constraint.value_class
            if not isinstance(value, (Iri, BlankNode)) or (
                Triple(value, Iri(RDF_TYPE), cls) not in graph
            ):
                yield finding(
                    f"value {format_term(value)} of <{path.value}> "
                    f"lacks type <{cls.value}>"
                )


# ---------------------------------------------------------------------------
# Pattern validation
# ---------------------------------------------------------------------------


def validate_patterns(graph: Graph, rules: Iterable[PatternRule]) -> ValidationReport:
    findings: list[Finding] = []
    for rule in rules:
        antecedent_vars = set()
        for p in rule.antecedent:
            antecedent_vars |= p.variables()
        # Each antecedent solution is extended by the consequent alone:
        # a solution with no extension has no witness.
        witness = plan_from(antecedent_vars, rule.consequent)
        for solution in eval_bgp(graph, plan(rule.antecedent)):
            if not extend(graph, witness, [solution]):
                findings.append(
                    Finding(rule.name, solution[rule.focus], rule.message, rule.severity)
                )
    return _report(findings)


def validate(
    graph: Graph, shapes: Iterable[Shape], rules: Iterable[PatternRule]
) -> ValidationReport:
    return validate_shapes(graph, shapes).merged_with(validate_patterns(graph, rules))


# ---------------------------------------------------------------------------
# Shape and pattern files
# ---------------------------------------------------------------------------


def _resolve_class(name: str, table: VocabTable, origin: str) -> Iri:
    term = _resolve_term(name, table, origin)
    if not isinstance(term, Iri):
        raise ValueError(f"{origin}: {name!r} must name a class, not a variable")
    return term


def _resolve_term(name: str, table: VocabTable, origin: str) -> Iri | Variable:
    if name.startswith("?"):
        return Variable(name[1:])
    if name == "a":
        return Iri(RDF_TYPE)
    if name.startswith("<") and name.endswith(">"):
        iri = Iri(name[1:-1])
        table.require_known([iri], origin)
        return iri
    return table.resolve(name)


def parse_shapes(doc: dict, table: VocabTable) -> tuple[Shape, ...]:
    shapes = []
    for entry in doc["shapes"]:
        origin = f"shape {entry['name']!r}"
        constraints = tuple(
            PropertyConstraint(
                path=_resolve_class(c["path"], table, origin),
                min_count=c.get("min_count", 0),
                max_count=c.get("max_count"),
                value_kind=c.get("value_kind", "any"),
                value_class=(
                    _resolve_class(c["value_class"], table, origin)
                    if "value_class" in c
                    else None
                ),
                severity=c.get("severity", "violation"),
            )
            for c in entry["constraints"]
        )
        shapes.append(
            Shape(
                name=entry["name"],
                target_class=_resolve_class(entry["target_class"], table, origin),
                constraints=constraints,
            )
        )
    return tuple(shapes)


def parse_patterns(doc: dict, table: VocabTable) -> tuple[PatternRule, ...]:
    rules = []
    for entry in doc["patterns"]:
        origin = f"pattern {entry['name']!r}"

        def block(key: str) -> tuple[TriplePattern, ...]:
            return tuple(
                TriplePattern(*(_resolve_term(t, table, origin) for t in triple))
                for triple in entry[key]
            )

        rules.append(
            PatternRule(
                name=entry["name"],
                antecedent=block("antecedent"),
                consequent=block("consequent"),
                focus=entry["focus"].lstrip("?"),
                message=entry["message"],
                severity=entry.get("severity", "violation"),
            )
        )
    return tuple(rules)


def _load_doc(filename: str) -> dict:
    text = (
        resources.files(__package__)
        .joinpath(f"shapes/{filename}")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


@cache
def load_shapes() -> tuple[Shape, ...]:
    return parse_shapes(_load_doc("shapes.json"), load_table())


@cache
def load_patterns() -> tuple[PatternRule, ...]:
    return parse_patterns(_load_doc("patterns.json"), load_table())

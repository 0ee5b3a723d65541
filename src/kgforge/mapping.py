"""Declarative mapping rules: the SPARQL CONSTRUCT subset.

A rule file holds PREFIX declarations and one ``CONSTRUCT { ... } WHERE
{ ... }`` form.  The WHERE block is a basic graph pattern plus BIND
clauses over IRI / CONCAT / ENCODE_FOR_URI / STR; anything else SPARQL
offers (FILTER, OPTIONAL, UNION, property paths, ...) is rejected at
parse time by name rather than silently ignored.

Evaluation follows SPARQL semantics where they are observable: BIND
errors leave the variable unbound instead of failing the solution, and
template triples that end up with an unbound variable or an ill-typed
position are skipped.  A basic graph pattern is planned once (most-bound
pattern first, bindings propagated left to right; a rule plans when it is
built) and joined by one loop per graph; the order only affects speed,
never the solution set.  Every solution at a step binds the same
variables, so the plan also tells each step which of its variables are
joined (already bound: they go into the lookup key), which are new (stored
without a check) and which repeat within the pattern (the only equality
the join compares itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from ._scan import ScanError, Scanner
from .mint import encode_for_uri
from .rdf import (
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    read_iri_or_pname,
    read_literal,
    read_term,
)
from .vocab import load_table

FUNCTIONS = ("IRI", "CONCAT", "ENCODE_FOR_URI", "STR")

_UNSUPPORTED_KEYWORDS = (
    "FILTER",
    "OPTIONAL",
    "UNION",
    "MINUS",
    "GRAPH",
    "SERVICE",
    "VALUES",
    "SELECT",
    "EXISTS",
)


class RuleParseError(ScanError):
    """Syntax error in a mapping rule, with position."""


class _RuleScanner(Scanner):
    error_class = RuleParseError


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __repr__(self):
        return f"?{self.name}"


PatternTerm = Term | Variable


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("pattern subject cannot be a literal")
        if not isinstance(self.predicate, (Iri, Variable)):
            raise ValueError("pattern predicate must be an IRI or a variable")

    def terms(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {t.name for t in self.terms() if isinstance(t, Variable)}


@dataclass(frozen=True, slots=True)
class Constant:
    term: Term


@dataclass(frozen=True, slots=True)
class VariableRef:
    name: str


@dataclass(frozen=True, slots=True)
class FnCall:
    fn: str
    args: tuple["Expression", ...]

    def __post_init__(self) -> None:
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function name: {self.fn}")
        if self.fn == "CONCAT":
            if not self.args:
                raise ValueError("CONCAT needs at least one argument")
        elif len(self.args) != 1:
            raise ValueError(f"{self.fn} takes exactly one argument")


Expression = Constant | VariableRef | FnCall


@dataclass(frozen=True, slots=True)
class BindClause:
    variable: str
    expression: Expression


@dataclass(frozen=True, slots=True)
class MappingRule:
    name: str
    prefixes: Mapping[str, str]
    template: tuple[TriplePattern, ...]
    where: tuple[TriplePattern, ...]
    binds: tuple[BindClause, ...]
    #: The WHERE pattern's join order, computed once here.
    plan: tuple[Step, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", plan(self.where))
        where_vars = set()
        for p in self.where:
            where_vars |= p.variables()
        produced = set(where_vars)
        for bind in self.binds:
            if bind.variable in produced:
                raise ValueError(
                    f"rule {self.name!r}: BIND reassigns ?{bind.variable}"
                )
            for ref in _expression_vars(bind.expression):
                if ref not in produced:
                    raise ValueError(
                        f"rule {self.name!r}: BIND expression uses ?{ref} "
                        "before it is bound"
                    )
            produced.add(bind.variable)
        for p in self.template:
            for var in p.variables():
                if var not in produced:
                    raise ValueError(
                        f"rule {self.name!r}: template variable ?{var} has no source"
                    )

    def iris(self) -> set[Iri]:
        """Every IRI constant in the template and WHERE patterns."""
        found = set()
        for p in self.template + self.where:
            found.update(t for t in p.terms() if isinstance(t, Iri))
        return found


def _expression_vars(e: Expression) -> Iterator[str]:
    if isinstance(e, VariableRef):
        yield e.name
    elif isinstance(e, FnCall):
        for arg in e.args:
            yield from _expression_vars(arg)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_prologue(sc: Scanner) -> dict[str, str]:
    """Read the ``PREFIX`` declarations that open a rule or a query."""
    prefixes: dict[str, str] = {}
    sc.skip_ws()
    while sc.match_keyword("PREFIX"):
        sc.skip_ws()
        prefix, local = sc.read_pname()
        if local:
            raise sc.error("prefix declaration must end with ':'")
        sc.skip_ws()
        prefixes[prefix] = sc.read_iriref()
        sc.skip_ws()
    return prefixes


def parse_rule(text: str, name: str = "rule") -> MappingRule:
    sc = _RuleScanner(text)
    prefixes = parse_prologue(sc)
    iris: dict[str, Iri] = {}
    if not sc.match_keyword("CONSTRUCT"):
        raise sc.error("expected CONSTRUCT")
    sc.skip_ws()
    sc.expect("{")
    template, _ = parse_triples_block(sc, prefixes, iris, allow_binds=False)
    sc.skip_ws()
    if not sc.match_keyword("WHERE"):
        raise sc.error("expected WHERE")
    sc.skip_ws()
    sc.expect("{")
    where, binds = parse_triples_block(sc, prefixes, iris, allow_binds=True)
    sc.skip_ws()
    if not sc.at_end():
        raise sc.error("unexpected content after WHERE block")

    try:
        return MappingRule(
            name=name,
            prefixes=prefixes,
            template=tuple(template),
            where=tuple(where),
            binds=tuple(binds),
        )
    except ValueError as exc:
        raise RuleParseError(str(exc), sc.line, sc.column) from None


def parse_triples_block(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri], allow_binds: bool
) -> tuple[list[TriplePattern], list[BindClause]]:
    """Read triple patterns (and BINDs when allowed) up to the closing
    ``}``; *iris* caches the IRIs read during one parse."""
    patterns: list[TriplePattern] = []
    binds: list[BindClause] = []
    while True:
        sc.skip_ws()
        if sc.try_consume("}"):
            return patterns, binds
        if sc.at_end():
            raise sc.error("unterminated block: expected '}'")
        # A prefixed name may start with the same letters as a keyword
        # (e.g. a prefix named "filter"), so only check keywords when the
        # upcoming token cannot be a prefixed name.
        if not sc.looks_like_pname():
            for keyword in _UNSUPPORTED_KEYWORDS:
                if sc.match_keyword(keyword):
                    raise sc.error(f"unsupported feature: {keyword}")
            if sc.peek() == "{":
                raise sc.error("unsupported feature: nested group")
            if sc.match_keyword("BIND"):
                if not allow_binds:
                    raise sc.error("BIND is only allowed in the WHERE block")
                binds.append(_parse_bind(sc, prefixes, iris))
                sc.skip_ws()
                sc.try_consume(".")
                continue
        _parse_subject_block(sc, prefixes, iris, patterns)


def _parse_subject_block(
    sc: Scanner,
    prefixes: dict[str, str],
    iris: dict[str, Iri],
    patterns: list[TriplePattern],
) -> None:
    subject = _read_pattern_term(sc, "subject", prefixes, iris)
    while True:
        sc.skip_ws()
        predicate = _read_pattern_term(sc, "predicate", prefixes, iris)
        _check_no_property_path(sc)
        while True:
            sc.skip_ws()
            obj = _read_pattern_term(sc, "object", prefixes, iris)
            try:
                patterns.append(TriplePattern(subject, predicate, obj))
            except ValueError as exc:
                raise sc.error(str(exc)) from None
            sc.skip_ws()
            if not sc.try_consume(","):
                break
        if sc.try_consume(";"):
            sc.skip_ws()
            if sc.peek() in ".}":
                break  # tolerate a trailing ';'
            continue
        break
    sc.skip_ws()
    sc.try_consume(".")


def _check_no_property_path(sc: Scanner) -> None:
    if sc.peek() in "/|^*+":
        raise sc.error("unsupported feature: property path")


def _parse_bind(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> BindClause:
    sc.skip_ws()
    sc.expect("(")
    expression = _parse_expression(sc, prefixes, iris)
    sc.skip_ws()
    if not sc.match_keyword("AS"):
        raise sc.error("expected AS in BIND")
    sc.skip_ws()
    variable = sc.read_var_name()
    sc.skip_ws()
    sc.expect(")")
    return BindClause(variable=variable, expression=expression)


def _parse_expression(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> Expression:
    sc.skip_ws()
    c = sc.peek()
    if c == "?":
        return VariableRef(sc.read_var_name())
    if c == '"':
        return Constant(read_literal(sc, prefixes, iris))
    if c == "<":
        return Constant(read_iri_or_pname(sc, prefixes, iris))
    name_start = sc.pos
    while sc.peek().isalpha() or sc.peek() == "_":
        sc.advance()
    name = sc.text[name_start : sc.pos].upper()
    if not name:
        raise sc.error("expected expression")
    if name not in FUNCTIONS:
        raise sc.error(f"unknown function name: {sc.text[name_start:sc.pos]}")
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    args: list[Expression] = []
    if not sc.try_consume(")"):
        args.append(_parse_expression(sc, prefixes, iris))
        sc.skip_ws()
        while sc.try_consume(","):
            args.append(_parse_expression(sc, prefixes, iris))
            sc.skip_ws()
        sc.expect(")")
    try:
        return FnCall(name, tuple(args))
    except ValueError as exc:
        raise sc.error(str(exc)) from None


def _read_pattern_term(
    sc: Scanner, position: str, prefixes: dict[str, str], iris: dict[str, Iri]
) -> PatternTerm:
    sc.skip_ws()
    if sc.peek() == "?":
        return Variable(sc.read_var_name())
    return read_term(sc, position, prefixes, iris)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: Marker for "this expression did not produce a value" (SPARQL's error /
#: unbound outcome).  Distinct from None so literals are never conflated.
UNBOUND = object()

BindingSet = Mapping[str, Term]


#: One step of a plan: ``(constants, joined, new, repeats)``, where
#: ``constants`` holds the pattern's three terms with ``None`` for each
#: variable.  Every solution reaching a step binds the same variables, so
#: the plan sorts each variable occurrence of the pattern into one of
#: three roles:
#:
#: - ``joined``: ``(position, name)`` of each variable an earlier step
#:   binds; its value fills the match key, so ``match`` checks it;
#: - ``new``: ``(position, name)`` of each variable first bound here, at
#:   its first occurrence; the matched triple's term is stored unchecked;
#: - ``repeats``: ``(position, name)`` of a later occurrence of a new
#:   variable (``?x p ?x``); the only equality the join itself checks.
Slot = tuple[int, str]
Step = tuple[
    tuple[Term | None, Term | None, Term | None],
    tuple[Slot, ...],
    tuple[Slot, ...],
    tuple[Slot, ...],
]

#: The term of a triple at each position.
_FIELDS = (attrgetter("subject"), attrgetter("predicate"), attrgetter("object"))


def plan(patterns: Iterable[TriplePattern]) -> tuple[Step, ...]:
    """The join order of a basic graph pattern, as ``eval_bgp`` runs it.

    The most-bound pattern goes first, counting the variables that the
    patterns before it bind; ties go to the pattern that occurs first.
    """
    return plan_from((), patterns)


def plan_from(bound: Iterable[str], patterns: Iterable[TriplePattern]) -> tuple[Step, ...]:
    """The plan of *patterns* for solutions that already bind *bound*:
    those variables are joined from the first step on (see ``extend``)."""
    remaining = list(patterns)
    steps: list[Step] = []
    bound = set(bound)
    while remaining:
        def boundness(p: TriplePattern) -> int:
            return sum(1 for t in p.terms() if not isinstance(t, Variable) or t.name in bound)

        best = max(remaining, key=boundness)
        remaining.remove(best)
        terms = best.terms()
        joined: list[Slot] = []
        new: dict[str, int] = {}
        repeats: list[Slot] = []
        for position, t in enumerate(terms):
            if not isinstance(t, Variable):
                continue
            if t.name in bound:
                joined.append((position, t.name))
            elif t.name in new:
                repeats.append((position, t.name))
            else:
                new[t.name] = position
        bound.update(new)
        constants = tuple(None if isinstance(t, Variable) else t for t in terms)
        steps.append(
            (
                constants,
                tuple(joined),
                tuple((position, name) for name, position in new.items()),
                tuple(repeats),
            )
        )
    return tuple(steps)


def eval_bgp(graph: Graph, plan: Iterable[Step]) -> list[dict[str, Term]]:
    """All solutions over *graph* of the basic graph pattern *plan*.

    Natural-join semantics: the empty pattern has exactly one empty
    solution.  The result is duplicate-free with no dedupe: each solution
    extends a distinct solution by a distinct matching triple.
    """
    return extend(graph, plan, [{}])


def extend(
    graph: Graph, plan: Iterable[Step], solutions: list[dict[str, Term]]
) -> list[dict[str, Term]]:
    """Every extension of each of *solutions* by the steps of *plan*;
    each solution binds the variables the plan was made for (the
    *bound* of ``plan_from``).

    The steps' slot roles divide the work: joined values go into the
    match key, new values are stored, and only repeats are compared.
    """
    for constants, joined, new, repeats in plan:
        next_solutions: list[dict[str, Term]] = []
        for binding in solutions:
            if joined:
                key = list(constants)
                for position, name in joined:
                    key[position] = binding[name]
            else:
                key = constants
            for triple in graph.match(*key):
                extended = binding.copy()
                for position, name in new:
                    extended[name] = _FIELDS[position](triple)
                for position, name in repeats:
                    if _FIELDS[position](triple) != extended[name]:
                        break
                else:
                    next_solutions.append(extended)
        solutions = next_solutions
        if not solutions:
            return []
    return solutions


def eval_expression(e: Expression, binding: BindingSet):
    """Evaluate to a Term, or UNBOUND on any error (SPARQL BIND semantics)."""
    if isinstance(e, Constant):
        return e.term
    if isinstance(e, VariableRef):
        return binding.get(e.name, UNBOUND)
    values = [eval_expression(arg, binding) for arg in e.args]
    if any(v is UNBOUND for v in values):
        return UNBOUND
    if e.fn == "STR":
        v = values[0]
        if isinstance(v, Iri):
            return Literal(v.value)
        if isinstance(v, Literal):
            return Literal(v.lexical)
        return UNBOUND
    if e.fn == "CONCAT":
        if not all(isinstance(v, Literal) for v in values):
            return UNBOUND
        return Literal("".join(v.lexical for v in values))
    if e.fn == "ENCODE_FOR_URI":
        v = values[0]
        if not isinstance(v, Literal):
            return UNBOUND
        return Literal(encode_for_uri(v.lexical))
    # IRI
    v = values[0]
    if isinstance(v, Iri):
        return v
    if isinstance(v, Literal):
        try:
            return Iri(v.lexical)
        except ValueError:
            return UNBOUND
    return UNBOUND


def apply_rule(graph: Graph, rule: MappingRule) -> Graph:
    """Instantiate the rule's template over every WHERE solution."""
    out: set[Triple] = set()
    for solution in eval_bgp(graph, rule.plan):
        for bind in rule.binds:
            value = eval_expression(bind.expression, solution)
            if value is not UNBOUND:
                solution[bind.variable] = value
        for pattern in rule.template:
            triple = _instantiate(pattern, solution)
            if triple is not None:
                out.add(triple)
    return Graph(out)


def _instantiate(pattern: TriplePattern, binding: BindingSet) -> Triple | None:
    parts = []
    for term in pattern.terms():
        if isinstance(term, Variable):
            value = binding.get(term.name)
            if value is None:
                return None
            parts.append(value)
        else:
            parts.append(term)
    s, p, o = parts
    if isinstance(s, Literal) or not isinstance(p, Iri):
        return None
    return Triple(s, p, o)


# ---------------------------------------------------------------------------
# The shipped rule pack
# ---------------------------------------------------------------------------

RULE_FILES = ("dataset.rq", "creator.rq", "study.rq", "substance.rq")


def rule_pack_sources() -> tuple[tuple[str, str], ...]:
    """``(file name, text)`` of each packaged rule, in application order."""
    package = resources.files(__package__)
    return tuple(
        (filename, package.joinpath(f"rules/{filename}").read_text(encoding="utf-8"))
        for filename in RULE_FILES
    )


def parse_rules(sources: Iterable[tuple[str, str]]) -> tuple[MappingRule, ...]:
    """Parse ``(name, text)`` rules and check them against the vocabulary."""
    table = load_table()
    rules = []
    for name, text in sources:
        rule = parse_rule(text, name=name)
        table.require_known(rule.iris(), f"rule {name}")
        rules.append(rule)
    return tuple(rules)


@cache
def load_rule_pack() -> tuple[MappingRule, ...]:
    """Parse the packaged rules and check them against the vocabulary."""
    return parse_rules(rule_pack_sources())

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
the join compares itself).  Rules and validation use this hash join.

The endpoint's SELECT and ASK use the ordered join instead
(``ordered_plan``, ``ordered_join``): it binds one variable at a time,
in the order the endpoint sorts rows by, over sorted id permutations of
the graph's ordered index, so it yields solutions in that order and can
stop after a prefix.  Its solutions stay rows of term ids until a caller
reads them as terms.  ``eval_bgp`` runs either plan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from ._scan import ScanError, Scanner
from .mint import encode_for_uri
from .rdf import (
    Graph,
    Iri,
    Literal,
    OrderedIndex,
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


def eval_bgp(
    graph: Graph, plan: Iterable[Step] | OrderedPlan, *, limit: int | None = None
) -> list[dict[str, Term]] | OrderedSolutions:
    """The solutions over *graph* of the basic graph pattern *plan*.

    Natural-join semantics: the empty pattern has exactly one empty
    solution, and no solution repeats.  A plan from ``plan`` gives every
    solution, in no particular order, by the hash join of ``extend``.
    An ``OrderedPlan`` gives the first *limit* solutions (all of them
    when it is None) in the plan's variable order, as the id rows of
    ``ordered_join``.
    """
    if isinstance(plan, OrderedPlan):
        return ordered_join(graph, plan, limit)
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


class OrderedPlan(NamedTuple):
    """A basic graph pattern planned for ``ordered_join``: variables are
    bound one at a time, in ``variables`` order, and each pattern reads
    the permutation of the graph's ordered index that lists its
    constants first and then its variables in that order."""

    #: The binding order.
    variables: tuple[str, ...]
    #: The patterns without a variable, each a triple the graph must hold.
    ground: tuple[Triple, ...]
    #: Per other pattern: its permutation, then its constants in that
    #: order.
    scans: tuple[tuple[tuple[int, ...], tuple[Term, ...]], ...]
    #: Per variable: ``(pattern, first, last)`` of each pattern that
    #: holds it, in its permutation's columns ``first`` to ``last``
    #: (``last > first`` for a repeat such as ``?x p ?x``).
    levels: tuple[tuple[tuple[int, int, int], ...], ...]
    #: Per variable: ``(pattern, column)`` when that one pattern holds it
    #: and every later variable, once each from that column on, so that
    #: its rows are the remaining solutions as they stand; else None.
    tails: tuple[tuple[int, int] | None, ...]


@dataclass(frozen=True, slots=True)
class OrderedSolutions:
    """The solutions of an ordered join, in order, as rows of term ids."""

    #: The variable of each id in a row: the plan's binding order.
    variables: tuple[str, ...]
    rows: list[tuple[int, ...]]
    #: The index whose ``terms`` the ids point into; None when no row
    #: holds an id.
    index: OrderedIndex | None

    def positions(self, names: Iterable[str]) -> list[tuple[str, int]]:
        """Each of *names* that the rows bind, with its place in a row."""
        return [(name, self.variables.index(name)) for name in names if name in self.variables]

    def dicts(self, names: Iterable[str]) -> list[dict[str, Term]]:
        """Each solution as the terms of those of *names* it binds."""
        positions = self.positions(names)
        terms = self.index.terms if self.index is not None else ()
        return [{name: terms[row[k]] for name, k in positions} for row in self.rows]


def ordered_plan(
    patterns: Iterable[TriplePattern], order_by: str | None = None
) -> OrderedPlan:
    """The plan that answers *patterns* in the endpoint's row order: by
    *order_by* first, when a pattern holds it, then by every other
    variable in name order."""
    patterns = [p.terms() for p in patterns]
    names = sorted({t.name for terms in patterns for t in terms if isinstance(t, Variable)})
    if order_by in names:
        names.remove(order_by)
        names.insert(0, order_by)
    depth = {name: d for d, name in enumerate(names)}
    ground, scans = [], []
    levels: list[list[tuple[int, int, int]]] = [[] for _ in names]
    for terms in patterns:
        constant, variable = [], []
        for k, t in enumerate(terms):
            if isinstance(t, Variable):
                variable.append((depth[t.name], k))
            else:
                constant.append(k)
        if not variable:
            ground.append(Triple(*terms))
            continue
        j = len(scans)
        variable.sort()
        order = constant + [k for _, k in variable]
        scans.append((tuple(order), tuple([terms[k] for k in constant])))
        for column, (d, _) in enumerate(variable, start=len(constant)):
            level = levels[d]
            if level and level[-1][0] == j:
                level[-1] = (j, level[-1][1], column)
            else:
                level.append((j, column, column))
    # A tail at one variable is a tail at each later one, in one pattern.
    tails: list[tuple[int, int] | None] = [None] * len(names)
    for d in reversed(range(len(names))):
        if len(levels[d]) != 1:
            break
        ((j, first, last),) = levels[d]
        if first != last or (d + 1 < len(names) and tails[d + 1][0] != j):
            break
        tails[d] = (j, first)
    return OrderedPlan(
        tuple(names), tuple(ground), tuple(scans), tuple(map(tuple, levels)), tuple(tails)
    )


def ordered_join(
    graph: Graph, plan: OrderedPlan, limit: int | None = None
) -> OrderedSolutions:
    """The first *limit* solutions of *plan* over *graph* (all of them
    when *limit* is None), sorted by the plan's variables in turn.

    A generic join in the manner of Leapfrog Triejoin (Veldhuizen, ICDT
    2014): each pattern holds a range of its permutation, narrowed by
    its constants and then by each variable it holds.  A variable takes
    the ids on which every range that holds it agrees, in increasing
    order, which is canonical term order, so solutions come out sorted
    and the join stops at the *limit*-th.  A constant that the graph
    lacks, or an empty range, is an empty answer.
    """
    empty = OrderedSolutions(plan.variables, [], None)
    if limit == 0 or not all(t in graph for t in plan.ground):
        return empty
    if not plan.variables:
        return OrderedSolutions((), [()], None)
    index = graph.ordered()
    ids = index.ids
    columns, lo, hi = [], [], []
    for order, constants in plan.scans:
        cols = index.permutation(order)
        a, b = 0, len(index)
        for col, term in zip(cols, constants):
            i = ids.get(term)
            if i is None:
                return empty
            a = bisect_left(col, i, a, b)
            b = bisect_right(col, i, a, b)
        if a == b:
            return empty
        columns.append(cols)
        lo.append(a)
        hi.append(b)
    levels, tails = plan.levels, plan.tails
    n = len(plan.variables)
    values = [0] * n
    out: list[tuple[int, ...]] = []

    def solve(d: int) -> bool:
        """Add the solutions that extend ``values[:d]``; True once
        *limit* are found."""
        if d == n:
            out.append(tuple(values))
            return len(out) == limit
        tail = tails[d]
        if tail is not None:
            j, k = tail
            a, b = lo[j], hi[j]
            if limit is not None:
                b = min(b, a + limit - len(out))
            rows = zip(*[col[a:b] for col in columns[j][k:]])
            if d:
                prefix = tuple(values[:d])
                out.extend([prefix + row for row in rows])
            else:
                out.extend(rows)
            return len(out) == limit
        level = levels[d]
        saved = [(lo[j], hi[j]) for j, _, _ in level]
        cols = [columns[j][first] for j, first, _ in level]
        starts = [a for a, _ in saved]
        ends = [b for _, b in saved]
        v = max(col[a] for col, a in zip(cols, starts))
        found = False
        while not found:
            # Seek every range to its first id >= v; a larger id met on
            # the way becomes v, and the seek starts again.
            for i, col in enumerate(cols):
                a = starts[i]
                if col[a] < v:
                    a = starts[i] = bisect_left(col, v, a, ends[i])
                    if a == ends[i]:
                        break
                if col[a] > v:
                    v = col[a]
                    break
            else:
                # Every range holds v: narrow each to its run of v.
                agreed = True
                for i, (j, first, last) in enumerate(level):
                    a = starts[i]
                    b = starts[i] = bisect_right(cols[i], v, a, ends[i])
                    for col in columns[j][first + 1 : last + 1]:
                        a = bisect_left(col, v, a, b)
                        b = bisect_right(col, v, a, b)
                    agreed = agreed and a < b
                    lo[j], hi[j] = a, b
                if agreed:
                    values[d] = v
                    found = solve(d + 1)
                if any(a == b for a, b in zip(starts, ends)):
                    break
                v = max(col[a] for col, a in zip(cols, starts))
                continue
            if starts[i] == ends[i]:
                break
        for (j, _, _), (a, b) in zip(level, saved):
            lo[j], hi[j] = a, b
        return found

    solve(0)
    return OrderedSolutions(plan.variables, out, index)


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

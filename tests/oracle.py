"""Brute-force reference implementations used to cross-check the engine.

The evaluator in kgforge.mapping reorders patterns and propagates
bindings while it joins; the oracle here does neither.  Every pattern is
matched against every triple independently, and the per-pattern match
lists are combined by exhaustive product with a consistency check.
Slow, but each step is small enough to verify by eye.
"""

import itertools
import random

from kgforge.mapping import TriplePattern, Variable
from kgforge.rdf import XSD_INTEGER, BlankNode, Graph, Iri, Literal, Triple, lang_literal


def match_one(pattern, triple):
    """Unify one pattern with one triple; None when they do not match."""
    binding = {}
    pairs = (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    )
    for pattern_term, value in pairs:
        if isinstance(pattern_term, Variable):
            if pattern_term.name in binding and binding[pattern_term.name] != value:
                return None
            binding[pattern_term.name] = value
        elif pattern_term != value:
            return None
    return binding


def merge(left, right):
    """Combine two bindings when they agree on every shared variable."""
    for name, value in right.items():
        if name in left and left[name] != value:
            return None
    combined = dict(left)
    combined.update(right)
    return combined


def product_cost(graph, patterns):
    """Size of the solution product the brute-force join would walk."""
    cost = 1
    for pattern in patterns:
        matches = sum(1 for t in graph if match_one(pattern, t) is not None)
        cost *= matches
    return cost


def eval_bgp_bruteforce(graph, patterns):
    """All BGP solutions as a set of frozen binding items."""
    per_pattern = []
    for pattern in patterns:
        matches = []
        for triple in graph:
            binding = match_one(pattern, triple)
            if binding is not None:
                matches.append(binding)
        per_pattern.append(matches)
    solutions = set()
    for combo in itertools.product(*per_pattern):
        accumulated = {}
        for binding in combo:
            accumulated = merge(accumulated, binding)
            if accumulated is None:
                break
        if accumulated is not None:
            solutions.add(frozenset(accumulated.items()))
    return solutions


def construct_bruteforce(graph, where, template):
    """The CONSTRUCT answer: each template triple over each solution,
    less the triples with a literal subject or a predicate that is not
    an IRI."""
    out = set()
    for solution in eval_bgp_bruteforce(graph, where):
        binding = dict(solution)
        for pattern in template:
            s, p, o = (binding[t.name] if isinstance(t, Variable) else t for t in pattern.terms())
            if not isinstance(s, Literal) and isinstance(p, Iri):
                out.add(Triple(s, p, o))
    return Graph(out)


# ---------------------------------------------------------------------------
# Random case generation (seeded, for the oracle comparison runs)
# ---------------------------------------------------------------------------

SUBJECTS = tuple(Iri(f"http://example.org/n{i}") for i in range(6)) + (
    BlankNode("x0"),
    BlankNode("x1"),
)
PREDICATES = tuple(Iri(f"http://example.org/p{i}") for i in range(4))
OBJECTS = SUBJECTS + (
    Literal("a"),
    Literal("b"),
    Literal("1", Iri(XSD_INTEGER)),
    lang_literal("hallo", "de"),
)
VARIABLE_NAMES = ("a", "b", "c", "d", "e")


def random_graph(rng: random.Random, max_triples: int = 100) -> Graph:
    triples = set()
    for _ in range(rng.randint(0, max_triples)):
        triples.add(
            Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
        )
    return Graph(triples)


def random_bgp(rng: random.Random, max_patterns: int = 4) -> list[TriplePattern]:
    def term(pool):
        if rng.random() < 0.5:
            return Variable(rng.choice(VARIABLE_NAMES))
        return rng.choice(pool)

    return [
        TriplePattern(term(SUBJECTS), term(PREDICATES), term(OBJECTS))
        for _ in range(rng.randint(1, max_patterns))
    ]


#: The share of ``random_case`` draws whose pattern is redrawn until it
#: has a solution; the others keep their first draw, often empty.
SOLVED_SHARE = 0.75
#: The largest brute-force product a case may cost.
MAX_COST = 20_000


def random_case(rng: random.Random, max_triples: int, max_patterns: int):
    """A random graph and a random BGP over it that brute force can
    join, or None when ten draws of the BGP cost too much.

    In ``SOLVED_SHARE`` of the calls the BGP is redrawn, up to ten
    times, until it has a solution, so that most cases compare answers
    and a few still compare empty ones.
    """
    graph = random_graph(rng, max_triples)
    solve = rng.random() < SOLVED_SHARE
    case = None
    for _ in range(10):
        bgp = random_bgp(rng, max_patterns)
        if product_cost(graph, bgp) > MAX_COST:
            continue
        case = graph, bgp
        if not solve or eval_bgp_bruteforce(graph, bgp):
            break
    return case

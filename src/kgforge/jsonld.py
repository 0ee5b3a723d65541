"""JSON-LD ingestion.

Converts the schema.org-flavored JSON-LD records the Chemotion API emits
into RDF graphs.  This is a deliberate subset of JSON-LD, not a full 1.1
expansion: inline contexts with plain term and prefix maps, ``@id``,
``@type``, ``@value``/``@language``, nested objects and arrays.  Anything
outside the subset is rejected loudly so a payload drift shows up as an
error instead of silently dropped triples.

Blank nodes for anonymous objects are labeled by their JSON path from the
record root (``b_creator_0`` for the first element under ``creator``), so
converting the same record twice yields the same graph byte for byte.
Distinct paths always get distinct labels, and an explicit ``_:`` label
never equals a path label, so two objects never merge.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from decimal import Decimal
from functools import cache
from importlib import resources
from typing import Any, Mapping, NoReturn

from .rdf import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Subject,
    Triple,
    lang_literal,
)

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# A \uD800-\uDFFF escape in JSON text, and a surrogate in a decoded string.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")

_NODE_KEYWORDS = {"@context", "@id", "@type"}
_VALUE_KEYWORDS = {"@value", "@language", "@type"}


class JsonLdError(ValueError):
    """Payload outside the supported JSON-LD subset."""


@dataclass(frozen=True, slots=True)
class JsonLdContext:
    """Term and prefix mappings from an inline ``@context``."""

    term_map: Mapping[str, Iri] = field(default_factory=dict)
    prefix_map: Mapping[str, str] = field(default_factory=dict)
    vocab: str | None = None

    def __post_init__(self) -> None:
        for prefix, ns in self.prefix_map.items():
            if not ns.endswith(("/", "#")):
                raise ValueError(
                    f"prefix {prefix!r} must expand to a namespace ending in '/' or '#'"
                )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> JsonLdContext:
        """Build a context from an inline ``@context`` JSON object."""
        vocab: str | None = None
        prefix_map: dict[str, str] = {}
        # Prefix declarations first, so term values may use them.
        for key, value in data.items():
            if key == "@vocab":
                if not isinstance(value, str):
                    raise JsonLdError("@vocab must be a string")
                vocab = value
            elif not isinstance(value, str):
                raise JsonLdError(f"unsupported term definition for {key!r}")
            elif value.endswith(("/", "#")):
                prefix_map[key] = value
        term_map: dict[str, Iri] = {}
        for key, value in data.items():
            if key == "@vocab" or key in prefix_map:
                continue
            prefix, _, rest = value.partition(":")
            if prefix in prefix_map:
                term_map[key] = Iri(prefix_map[prefix] + rest)
            else:
                term_map[key] = Iri(value)
        return cls(term_map=term_map, prefix_map=prefix_map, vocab=vocab)

    def merged_with(self, data: Mapping[str, Any]) -> JsonLdContext:
        """This context updated by an inline ``@context`` (inline wins)."""
        inline = JsonLdContext.from_mapping(data)
        return JsonLdContext(
            term_map={**self.term_map, **inline.term_map},
            prefix_map={**self.prefix_map, **inline.prefix_map},
            vocab=inline.vocab if inline.vocab is not None else self.vocab,
        )

    def expand_term(self, term: str) -> Iri:
        """Expand a key or ``@type`` value to an IRI."""
        if term in self.term_map:
            return self.term_map[term]
        if ":" in term:
            prefix, rest = term.split(":", 1)
            if prefix in self.prefix_map:
                return Iri(self.prefix_map[prefix] + rest)
            if _SCHEME.match(term):
                return Iri(term)
        if self.vocab is not None:
            return Iri(self.vocab + term)
        raise JsonLdError(f"term {term!r} has no context mapping and no @vocab applies")

    def expand_reference(self, value: str) -> Subject:
        """Expand an ``@id`` value; the vocabulary default does not apply."""
        if value.startswith("_:"):
            # Every path label starts with ``b_``; an explicit label that
            # does, or that starts with ``e_``, is escaped with ``e_``.
            label = value[2:]
            return BlankNode("e_" + label if label.startswith(("b_", "e_")) else label)
        if ":" in value:
            prefix, rest = value.split(":", 1)
            if prefix in self.prefix_map:
                return Iri(self.prefix_map[prefix] + rest)
            if _SCHEME.match(value):
                return Iri(value)
        raise JsonLdError(f"@id {value!r} is not an absolute IRI")


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One harvested repository record."""

    source_id: str
    submission_date: date
    payload: Any
    fetched_at: datetime

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be nonempty")


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number")


def parse_payload(text: str) -> Any:
    """Parse record JSON, keeping decimal fractions exact.

    ``NaN``, ``Infinity`` and ``-Infinity``, which ``json.loads`` takes
    by default but RFC 8259 does not allow, raise ValueError.  So do a
    ``\\uD800``-``\\uDFFF`` escape outside a surrogate pair, which
    decodes to a string that cannot be written as UTF-8, and nesting
    deeper than the interpreter's recursion limit.
    """
    try:
        doc = json.loads(text, parse_float=Decimal, parse_constant=_reject_constant)
        if _SURROGATE_ESCAPE.search(text) and _holds_surrogate(doc):
            raise ValueError("unpaired surrogate escape in a string")
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return doc


def _holds_surrogate(value: Any) -> bool:
    """Whether a string in the decoded *value* holds a surrogate; a
    paired escape has decoded to one character outside the BMP."""
    if isinstance(value, str):
        return _SURROGATE.search(value) is not None
    if isinstance(value, dict):
        return any(_holds_surrogate(k) or _holds_surrogate(v) for k, v in value.items())
    if isinstance(value, list):
        return any(map(_holds_surrogate, value))
    return False


def default_context_text() -> str:
    """The packaged schema.org term map as JSON text."""
    return (
        resources.files(__package__)
        .joinpath("rules/schema_context.json")
        .read_text(encoding="utf-8")
    )


@cache
def load_default_context() -> JsonLdContext:
    """The packaged schema.org term map."""
    return JsonLdContext.from_mapping(json.loads(default_context_text()))


def to_rdf(record: RawRecord, context: JsonLdContext) -> Graph:
    """Convert one record's payload to a graph of triples."""
    payload = record.payload
    triples: set[Triple] = set()
    try:
        if isinstance(payload, list):
            for i, node in enumerate(payload):
                if not isinstance(node, dict):
                    raise JsonLdError("top-level array items must be JSON objects")
                _convert_root(node, context, (str(i),), triples)
        elif isinstance(payload, dict):
            _convert_root(payload, context, (), triples)
        else:
            raise JsonLdError("payload must be a JSON object or an array of objects")
    except RecursionError:
        raise JsonLdError("payload nested too deeply") from None
    return Graph(triples)


def relabel_blank_nodes(graph: Graph, record_scope: str) -> Graph:
    """Prefix every blank node label with a digest of *record_scope*.

    Path-based labels repeat across records (every record has its own
    ``b_creator_0``); the digest prefix keeps them distinct when graphs
    from different records are merged into one store.
    """
    prefix = hashlib.sha256(record_scope.encode("utf-8")).hexdigest()[:16]

    def fix(term):
        if isinstance(term, BlankNode):
            return BlankNode(f"r{prefix}_{term.label}")
        return term

    return Graph(
        Triple(fix(t.subject), t.predicate, fix(t.object)) for t in graph
    )


# ---------------------------------------------------------------------------
# Conversion internals
# ---------------------------------------------------------------------------


def _convert_root(
    node: dict, context: JsonLdContext, path: tuple[str, ...], out: set[Triple]
) -> None:
    ctx = context
    if "@context" in node:
        inline = node["@context"]
        if not isinstance(inline, dict):
            raise JsonLdError("only inline @context objects are supported")
        ctx = context.merged_with(inline)
    _convert_node(node, ctx, path, out)


def _convert_node(
    node: dict, ctx: JsonLdContext, path: tuple[str, ...], out: set[Triple]
) -> Subject:
    for key in node:
        if key.startswith("@") and key not in _NODE_KEYWORDS:
            raise JsonLdError(f"unsupported keyword: {key}")

    if "@id" in node:
        if not isinstance(node["@id"], str):
            raise JsonLdError("@id must be a string")
        subject: Subject = ctx.expand_reference(node["@id"])
    else:
        subject = BlankNode(_path_label(path))

    types = node.get("@type", [])
    if isinstance(types, str):
        types = [types]
    elif not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        # A number, null, boolean or object would otherwise raise
        # TypeError, or an object be read as its keys.
        raise JsonLdError("@type must be a string or a list of strings")
    for t in types:
        out.add(Triple(subject, Iri(RDF_TYPE), ctx.expand_term(t)))

    for key, value in node.items():
        if key in _NODE_KEYWORDS:
            continue
        predicate = ctx.expand_term(key)
        _convert_value(subject, predicate, value, ctx, path + (key,), out)
    return subject


def _convert_value(
    subject: Subject,
    predicate: Iri,
    value: Any,
    ctx: JsonLdContext,
    path: tuple[str, ...],
    out: set[Triple],
) -> None:
    if isinstance(value, list):
        for i, item in enumerate(value):
            _convert_value(subject, predicate, item, ctx, path + (str(i),), out)
        return
    if isinstance(value, dict):
        if "@value" in value:
            out.add(Triple(subject, predicate, _value_object(value, ctx)))
        elif "@context" in value:
            raise JsonLdError("nested @context is not supported")
        else:
            child = _convert_node(value, ctx, path, out)
            out.add(Triple(subject, predicate, child))
        return
    if value is None:
        return
    out.add(Triple(subject, predicate, _scalar(value)))


def _value_object(value: dict, ctx: JsonLdContext) -> Literal:
    for key in value:
        if key not in _VALUE_KEYWORDS:
            raise JsonLdError(f"unsupported keyword: {key}")
    v = value["@value"]
    if "@language" in value:
        if "@type" in value:
            raise JsonLdError("@language and @type cannot both appear in a value object")
        if not isinstance(v, str):
            raise JsonLdError("@language requires a string @value")
        if not isinstance(value["@language"], str):
            raise JsonLdError("@language must be a string")
        return lang_literal(v, value["@language"])
    if "@type" in value:
        if not isinstance(value["@type"], str):
            raise JsonLdError("@type of a value object must be a string")
        lexical = v if isinstance(v, str) else _scalar(v).lexical
        return Literal(lexical, ctx.expand_term(value["@type"]))
    return _scalar(v)


def _scalar(value: Any) -> Literal:
    if isinstance(value, bool):
        return Literal("true" if value else "false", Iri(XSD_BOOLEAN))
    if isinstance(value, int):
        return Literal(str(value), Iri(XSD_INTEGER))
    if isinstance(value, Decimal):
        return _number(value)
    if isinstance(value, str):
        return Literal(value)
    raise JsonLdError(f"unsupported JSON value: {value!r}")


def _number(value: Decimal) -> Literal:
    """The literal of a JSON number, parsed to an exact decimal.

    ``str`` writes a decimal in plain notation unless its exponent is
    positive or it is below 1E-6, and the XSD integer and decimal lexical
    forms have no exponent.  So an integral value below 10^21 is written
    in plain digits, and any other value whose ``str`` has an exponent
    becomes the canonical ``xsd:double`` that JSON-LD 1.1's toRdf writes
    (``INF`` on overflow), never a huge string of digits.
    """
    text = str(value)
    if value == value.to_integral_value() and ("E" not in text or abs(value) < 10**21):
        return Literal(format(value.to_integral_value(), "f"), Iri(XSD_INTEGER))
    if "E" not in text:
        return Literal(text, Iri(XSD_DECIMAL))
    number = float(value)
    if math.isinf(number):
        return Literal("INF" if number > 0 else "-INF", Iri(XSD_DOUBLE))
    mantissa, exponent = f"{number:.15E}".split("E")
    mantissa = mantissa.rstrip("0")
    if mantissa.endswith("."):
        mantissa += "0"
    return Literal(f"{mantissa}E{int(exponent)}", Iri(XSD_DOUBLE))


def _path_label(path: tuple[str, ...]) -> str:
    """``b_`` and the path's segments joined by ``_``: a segment of ASCII
    letters and digits as it is, any other as ``_`` and the hex of its
    UTF-8 bytes.  A label splits back into its path (an empty piece
    marks an escaped one), so no two objects share a label.  The root is
    ``b_root``, so a lone segment ``root`` is escaped too."""
    if not path:
        return "b_root"
    plain = path != ("root",)
    return "b_" + "_".join(
        p if plain and p.isascii() and p.isalnum() else "_" + p.encode("utf-8").hex()
        for p in path
    )

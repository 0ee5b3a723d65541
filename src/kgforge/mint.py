"""Deterministic IRI minting.

Resource IRIs are derived from the source record identifier plus its
submission date, and named-graph IRIs from the submission date alone.
Everything here is pure: the same inputs always mint the same IRI, which
is what makes re-ingestion idempotent and keeps graph output reproducible
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from urllib.parse import quote

from .rdf import Iri

GRANULARITIES = ("month", "day")


def encode_for_uri(s: str) -> str:
    """Percent-encode *s* like SPARQL's ENCODE_FOR_URI.

    RFC 3986 unreserved characters (ALPHA / DIGIT / ``-._~``) pass through;
    every other byte of the UTF-8 encoding becomes ``%XX`` with uppercase
    hex digits.
    """
    return quote(s, safe="")


@dataclass(frozen=True, slots=True)
class MintConfig:
    """Minting policy for one pipeline run."""

    base: Iri
    graph_granularity: str = "month"

    def __post_init__(self) -> None:
        if not self.base.value.endswith("/"):
            raise ValueError(f"mint base must end with '/': {self.base.value!r}")
        if self.graph_granularity not in GRANULARITIES:
            raise ValueError(f"unknown graph granularity: {self.graph_granularity!r}")


def mint_resource_iri(
    cfg: MintConfig, year: int, month: int, source_id: str, suffix: str
) -> Iri:
    """Mint the IRI of a harvested resource.

    The source identifier is kept verbatim in the path (DOIs contain
    slashes, and traceability back to the repository record depends on
    them surviving); only the suffix is percent-encoded.
    """
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range: {month}")
    if not source_id:
        raise ValueError("source_id must be nonempty")
    return Iri(
        f"{cfg.base.value}resources/{year}/{month:02d}/{source_id}/"
        f"{encode_for_uri(suffix)}"
    )


def mint_graph_iri(cfg: MintConfig, when: date) -> Iri:
    """Mint the named-graph IRI for records submitted on *when*."""
    path = f"{cfg.base.value}graphs/{when.year}/{when.month:02d}"
    if cfg.graph_granularity == "day":
        path += f"/{when.day:02d}"
    return Iri(path)

"""The quad store: submission-date named graphs with idempotent loads.

The store is a set of named graphs, as an RDF 1.1 dataset is: each
graph is one immutable ``Graph`` that indexes itself on its first bound
lookup.  A load that changes a graph swaps in a new ``Graph``, so no
index can go stale.  ``triples()`` is the union of all graphs, built
and indexed on first use and kept until a graph changes.

Two operations change the store.  ``load_quads`` is a set-union insert.
``replace_graph`` makes a graph hold exactly the given quads, like
``PUT`` in the SPARQL 1.1 Graph Store HTTP Protocol: the batch pipeline
stages each named graph whole, so a re-staged graph replaces its stored
version and an edited record leaves no stale triple behind.  Graphs not
named in a call are untouched; no operation drops a graph from the
manifest.  Both commit a graph through one step: only a graph whose
content changed gets its new ``Graph`` and one load event, so replaying
a batch leaves no trace.

Persistence is one canonical N-Quads file per named graph under
``graphs/`` next to a ``manifest.json``.  Serialization is canonical, so
identical content is byte-identical on disk; each file is written
straight from its graph's triples, and the concatenation of the files in
graph IRI order is the canonical text of the whole store.  ``persist``
rewrites only the graphs changed since the store was loaded from, or
last persisted to, that directory, then the manifest, each through a
temporary file and a rename; it writes nothing when no graph changed.
Each manifest entry records the ``sha256`` of its graph file.  ``load``
reads each file once and each distinct term of it once, and raises
``CorruptManifest`` for a directory that contradicts its manifest (a
missing file, another quad count, a file that does not hash to its
digest) or holds a graph file that is not UTF-8 N-Quads.  So a failure
between two renames of ``persist``, which leaves new files under the
old manifest, is caught.  An entry without a digest, persisted before
digests were recorded, loads unchecked.

``persist`` writes nothing but serializer output, so a file that
matches its digest is the canonical text of the graph read from it.
The store keeps the identity of each such certified file until the
graph changes in memory, and ``open_certified`` hands it out again only
while the file on disk is still that same file; ``persist`` renames a
new file into place, so a rewritten graph has a new identity.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from ._atomic import replace_files
from .mint import encode_for_uri
from .rdf import (
    RDF_TYPE,
    Graph,
    Iri,
    ParseError,
    Quad,
    Subject,
    Term,
    Triple,
    parse_nquads,
    serialize_nquads,
)

MANIFEST_NAME = "manifest.json"
GRAPHS_DIR = "graphs"


class CorruptManifest(ValueError):
    """The persisted directory contradicts its own manifest."""


@dataclass
class StoreStats:
    total_triples: int
    per_class: dict[Iri, int]
    per_predicate: dict[Iri, int]
    graph_count: int

    def to_json_dict(self) -> dict:
        return {
            "total_triples": self.total_triples,
            "graph_count": self.graph_count,
            "per_class": {
                iri.value: n for iri, n in sorted(self.per_class.items(), key=lambda kv: kv[0].value)
            },
            "per_predicate": {
                iri.value: n
                for iri, n in sorted(self.per_predicate.items(), key=lambda kv: kv[0].value)
            },
        }


@dataclass
class _GraphEntry:
    """Manifest bookkeeping for one named graph."""

    filename: str
    loads: list[dict] = field(default_factory=list)
    #: SHA-256 of the graph file as last persisted or loaded; None for
    #: an entry persisted without one.
    sha256: str | None = None


#: What tells one file from another at a path: device, inode, size and
#: modification time.
_FileIdentity = tuple[int, int, int, int]


def _file_identity(st: os.stat_result) -> _FileIdentity:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class Store:
    """A set of named graphs; every quad belongs to a named graph."""

    def __init__(self) -> None:
        # Non-empty graphs only: an emptied graph keeps its manifest
        # entry but leaves this map.
        self._graphs: dict[Iri, Graph] = {}
        self._union: Graph | None = None
        self._manifest: dict[Iri, _GraphEntry] = {}
        # The directory the store was loaded from or last persisted to,
        # and the graphs changed since.
        self._home: Path | None = None
        self._dirty: set[Iri] = set()
        # Graph files that hashed to their digest at load, by graph: the
        # path and the identity of the file read.
        self._certified: dict[Iri, tuple[Path, _FileIdentity]] = {}

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self._graphs.values()))

    def __iter__(self) -> Iterator[Quad]:
        for graph, triples in self._graphs.items():
            for t in triples:
                yield Quad(t, graph)

    def __contains__(self, quad: Quad) -> bool:
        return quad.triple in self._graphs.get(quad.graph, ())

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and self._graphs == other._graphs

    def graphs(self) -> set[Iri]:
        return set(self._graphs)

    def graph_entry(self, graph: Iri) -> _GraphEntry:
        return self._manifest[graph]

    def open_certified(self, graph: Iri) -> tuple[BinaryIO, int] | None:
        """The graph's file, opened for reading, and its size, when
        ``load`` certified it by its digest, the graph has not changed
        since, and the file at that path is still the one read then;
        otherwise None.  The caller closes the file.
        """
        certified = self._certified.get(graph)
        if certified is None:
            return None
        path, identity = certified
        try:
            f = open(path, "rb")
        except OSError:
            return None
        if _file_identity(os.fstat(f.fileno())) != identity:
            f.close()
            return None
        return f, identity[2]

    def triples(self, graph: Iri | None = None) -> Graph:
        """Triples of one graph, or of the union of all graphs.

        A named graph is the stored ``Graph`` itself.  The union is
        built and indexed on first use and the same object is returned
        until a load changes a graph.  Building is idempotent, so
        threads reading one store may race on it.
        """
        if graph is not None:
            return self._graphs.get(graph) or Graph()
        union = self._union
        if union is None:
            union = Graph(itertools.chain.from_iterable(self._graphs.values()))
            union._index()
            self._union = union
        return union

    # -- ingestion -----------------------------------------------------

    def load_quads(
        self,
        quads: Iterable[Quad],
        *,
        source_records: int = 0,
        loaded_at: datetime | None = None,
    ) -> int:
        """Set-union insert; returns the number of genuinely new quads.

        The whole batch is checked before the store changes, then each
        graph it names is committed as its union with the batch.
        """
        batch: dict[Iri, list[Triple]] = {}
        for quad in quads:
            if quad.graph is None:
                raise ValueError("store quads must carry a named graph")
            batch.setdefault(quad.graph, []).append(quad.triple)
        loaded_at = loaded_at or datetime.now(timezone.utc)
        return sum(
            self._commit(graph, self.triples(graph).union(triples), source_records, loaded_at)[0]
            for graph, triples in batch.items()
        )

    def replace_graph(
        self,
        graph: Iri,
        quads: Iterable[Quad],
        *,
        source_records: int = 0,
        loaded_at: datetime | None = None,
    ) -> tuple[int, int]:
        """Make ``graph`` hold exactly ``quads``; returns the numbers of
        quads (inserted, removed).

        A graph replaced by nothing keeps its manifest entry with no
        quads.
        """
        wanted = []
        for quad in quads:
            if quad.graph != graph:
                raise ValueError(f"quad for graph {quad.graph} in a replacement of {graph}")
            wanted.append(quad.triple)
        return self._commit(
            graph, Graph(wanted), source_records, loaded_at or datetime.now(timezone.utc)
        )

    def _commit(
        self, graph: Iri, new: Graph, source_records: int, loaded_at: datetime
    ) -> tuple[int, int]:
        """Make ``new`` the content of ``graph``; returns the numbers of
        quads (inserted, removed).  A change swaps ``new`` in and records
        one load event, with ``removed`` only when nonzero; no change
        leaves the graph, its views and its manifest entry as they were.
        """
        old = self.triples(graph)
        kept = sum(1 for t in old if t in new)
        inserted, removed = len(new) - kept, len(old) - kept
        if not (inserted or removed):
            return 0, 0
        if new:
            self._graphs[graph] = new
        else:
            del self._graphs[graph]
        self._union = None
        self._dirty.add(graph)
        self._certified.pop(graph, None)
        event = dict(at=loaded_at.isoformat(), inserted=inserted, source_records=source_records)
        if removed:
            event["removed"] = removed
        self._manifest.setdefault(graph, _GraphEntry(graph_filename(graph))).loads.append(event)
        return inserted, removed

    # -- lookup ----------------------------------------------------------

    def match(
        self,
        subject: Subject | None = None,
        predicate: Iri | None = None,
        obj: Term | None = None,
        graph: Iri | None = None,
    ) -> Iterator[Quad]:
        """All quads matching the bound positions; ``None`` is a wildcard.

        Each named graph answers for its own quads.
        """
        for g in self._graphs if graph is None else (graph,):
            for t in self.triples(g).match(subject, predicate, obj):
                yield Quad(t, g)

    # -- statistics ------------------------------------------------------

    def stats(self) -> StoreStats:
        rdf_type = Iri(RDF_TYPE)
        per_class: dict[Iri, set[Subject]] = {}
        per_predicate: dict[Iri, int] = {}
        for t in itertools.chain.from_iterable(self._graphs.values()):
            per_predicate[t.predicate] = per_predicate.get(t.predicate, 0) + 1
            if t.predicate == rdf_type and isinstance(t.object, Iri):
                per_class.setdefault(t.object, set()).add(t.subject)
        return StoreStats(
            total_triples=len(self),
            per_class={cls: len(subjects) for cls, subjects in per_class.items()},
            per_predicate=per_predicate,
            graph_count=len(self._graphs),
        )

    # -- persistence -----------------------------------------------------

    def persist(self, directory: Path | str) -> None:
        """Write one canonical N-Quads file per graph plus the manifest.

        Into the directory the store was loaded from or last persisted
        to, while its manifest exists, only the graphs changed since are
        written, and nothing at all when none changed.  Every file goes
        through a temporary file, all of them written before the first
        rename, and the manifest, which records the ``sha256`` of each
        file written and keeps the digest of each file left alone, is
        renamed last.
        """
        directory = Path(directory)
        home = directory.resolve()
        manifest_path = directory / MANIFEST_NAME
        if home == self._home and manifest_path.exists():
            if not self._dirty:
                return
            changed = self._dirty
        else:
            changed = set(self._manifest)
        graphs_dir = directory / GRAPHS_DIR
        graphs_dir.mkdir(parents=True, exist_ok=True)

        # A generator: each graph is serialized just before its temp file
        # is written, so only one graph's text is held at a time, and the
        # manifest is built once every digest is known.
        def files():
            for graph in sorted(changed, key=lambda g: g.value):
                entry = self._manifest[graph]
                data = serialize_nquads(self.triples(graph), graph).encode("utf-8")
                entry.sha256 = hashlib.sha256(data).hexdigest()
                yield graphs_dir / entry.filename, data
            yield manifest_path, self._manifest_text()

        replace_files(files())
        self._home = home
        self._dirty.clear()

    def _manifest_text(self) -> str:
        manifest_doc = {}
        for graph, entry in self._manifest.items():
            doc = {"file": entry.filename, "quads": len(self.triples(graph)), "loads": entry.loads}
            if entry.sha256 is not None:
                doc["sha256"] = entry.sha256
            manifest_doc[graph.value] = doc
        return json.dumps({"graphs": manifest_doc}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, directory: Path | str) -> "Store":
        """Rebuild a store from a persisted directory.

        A directory without a manifest is an empty store.  A manifest
        that cannot be read or disagrees with the files next to it, and
        a graph file that is not UTF-8 N-Quads, raise CorruptManifest
        naming the file (and the line and column of a syntax error).
        The digest is checked last, so a file that is damaged in another
        way keeps that message.  A file that matches its digest is
        certified until its graph changes.
        """
        directory = Path(directory)
        home = directory.resolve()
        store = cls()
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            return store
        # Not UTF-8 or not JSON is a ValueError, nested deeper than the
        # decoder recurses a RecursionError.
        try:
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
            graph_entries = doc["graphs"]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise CorruptManifest(f"unreadable manifest: {exc}") from exc
        for graph_value in sorted(graph_entries):
            entry_doc = graph_entries[graph_value]
            try:
                graph = Iri(graph_value)
            except ValueError as exc:
                raise CorruptManifest(f"manifest names a graph that is {exc}") from exc
            try:
                filename = entry_doc["file"]
                expected_count = entry_doc["quads"]
                loads = entry_doc["loads"]
            except (KeyError, TypeError) as exc:
                raise CorruptManifest(
                    f"manifest entry for {graph_value} is missing {exc}"
                ) from exc
            digest = entry_doc.get("sha256")
            if not (
                isinstance(filename, str)
                and isinstance(loads, list)
                and (digest is None or isinstance(digest, str))
            ):
                raise CorruptManifest(f"manifest entry for {graph_value} is malformed")
            graph_file = home / GRAPHS_DIR / filename
            try:
                quads, sha256, identity = _read_graph_file(graph_file)
            except (FileNotFoundError, NotADirectoryError):
                raise CorruptManifest(f"missing graph file: {filename}") from None
            except UnicodeDecodeError as exc:
                raise CorruptManifest(f"{filename} is not UTF-8: {exc}") from exc
            except ParseError as exc:
                raise CorruptManifest(f"{filename}: {exc}") from exc
            for quad in quads:
                if quad.graph != graph:
                    raise CorruptManifest(
                        f"{filename} contains a quad for {quad.graph}, "
                        f"expected {graph_value}"
                    )
            triples = Graph(q.triple for q in quads)
            if len(triples) != expected_count:
                raise CorruptManifest(
                    f"{filename} holds {len(triples)} quads, "
                    f"manifest says {expected_count}"
                )
            if digest is not None:
                if sha256 != digest:
                    raise CorruptManifest(f"{filename} does not match its sha256 in the manifest")
                if identity is not None:
                    store._certified[graph] = (graph_file, identity)
            if triples:
                store._graphs[graph] = triples
            store._manifest[graph] = _GraphEntry(filename, list(loads), digest)
        store._home = home
        return store


def _read_graph_file(path: Path) -> tuple[list[Quad], str, _FileIdentity | None]:
    """A graph file's quads, the SHA-256 of its bytes and the identity of
    the file read (None if it changed size while read), from one read.

    Neither the bytes nor the text outlive the call, so they are not
    held while the next file is read.  Raises OSError for a file that
    cannot be read, UnicodeDecodeError for one that is not UTF-8, and
    ParseError.
    """
    with open(path, "rb") as f:
        data = f.read()
        st = os.fstat(f.fileno())
    identity = _file_identity(st) if st.st_size == len(data) else None
    return read_nquads(data), hashlib.sha256(data).hexdigest(), identity


def read_nquads(data: bytes) -> list[Quad]:
    """The quads of a stored or staged graph file: UTF-8, with CRLF and
    CR ending lines as in a text-mode read.  Raises ValueError."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_nquads(text)


def graph_filename(graph: Iri) -> str:
    """File name for a graph: ``2014-05.nq`` for date-shaped graph IRIs,
    a percent-encoded fallback otherwise."""
    marker = "/graphs/"
    at = graph.value.find(marker)
    if at >= 0:
        tail = graph.value[at + len(marker) :]
        parts = tail.split("/")
        if parts and all(p.isdigit() for p in parts):
            return "-".join(parts) + ".nq"
    return encode_for_uri(graph.value) + ".nq"

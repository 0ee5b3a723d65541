"""The query-mix traffic: two closed-loop HTTP streams against ``serve``.

The mix follows the "explore" use case of the Berlin SPARQL Benchmark
(Bizer & Schultz, 2009): point lookups next to bounded scans.

* ``lookup``: bound-subject SELECT, bound-object SELECT, ASK, a
  CONSTRUCT describing one subject, and ``GET /stats``.
* ``analytic``: type scans with ORDER BY/LIMIT/OFFSET, GRAPH-scoped
  two-pattern joins with LIMIT, GRAPH-scoped type listings, and
  ``GET /export/Y/M``.

Kinds alternate round-robin inside each stream, so every run has the
same proportions, and each stream has five requests per round so that
its median falls inside one kind's latencies rather than on the gap
between two kinds; the seed picks the targets.  Unscoped multi-pattern
joins are left out: one takes seconds at this size and would swamp a
latency run.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
import time
import traceback
from dataclasses import dataclass
from urllib.parse import quote, urlencode

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
NFDI = "https://nfdi.fiz-karlsruhe.de/ontology/"
OBO = "http://purl.obolibrary.org/obo/"
DATASET = NFDI + "NFDI_0000009"
CREATOR = NFDI + "NFDI_0001027"
LISTED_CLASSES = (OBO + "CHEBI_59999", OBO + "CHEBI_23367", NFDI + "NFDI_0000004", OBO + "BFO_0000015")
SCANNED_CLASSES = (DATASET, NFDI + "NFDI_0000014", OBO + "BFO_0000015")

#: Distinct targets per query kind; each is computed once in set-up.
TARGETS = 8


@dataclass(frozen=True)
class Request:
    stream: str
    kind: str
    path: str  # "/stats", "/export/Y/M", or a SPARQL query text
    query: str | None = None

    @property
    def url(self) -> str:
        if self.query is None:
            return self.path
        return "/sparql?" + urlencode({"query": self.query}, quote_via=quote)


def build_mix(store, seed: int) -> dict[str, list[Request]]:
    """One request cycle per stream; targets come from the store the
    program built, chosen by the seed."""
    from kgforge.rdf import Iri

    rng = random.Random(f"kgforge-querymix:{seed}")
    datasets = sorted(q.triple.subject.value for q in store.match(predicate=Iri(RDF_TYPE), obj=Iri(DATASET)))
    creators = sorted({q.triple.object.value for q in store.match(predicate=Iri(CREATOR))})
    # The corpus fills months from the first day, so only the last graph
    # is partial; targets come from the full months, so that a seed does
    # not change how much data a scoped query touches.
    graphs = sorted(g.value for g in store.graphs())[:-1]

    def pick(pool):
        return rng.sample(pool, min(TARGETS, len(pool)))

    subjects, objects, asked, described = pick(datasets), pick(creators), pick(datasets), pick(datasets)
    lookup = []
    for k in range(TARGETS):
        lookup += [
            Request("lookup", "select-subject", "", f"SELECT ?p ?o WHERE {{ <{subjects[k % len(subjects)]}> ?p ?o }}"),
            Request("lookup", "select-object", "", f"SELECT ?d WHERE {{ ?d <{CREATOR}> <{objects[k % len(objects)]}> }}"),
            Request("lookup", "ask", "", f"ASK {{ <{asked[k % len(asked)]}> a <{DATASET}> }}"),
            Request("lookup", "construct", "", f"CONSTRUCT {{ <{described[k % len(described)]}> ?p ?o }} WHERE {{ <{described[k % len(described)]}> ?p ?o }}"),
            Request("lookup", "stats", "/stats"),
        ]
    analytic = []
    for k in range(TARGETS):
        scanned = [SCANNED_CLASSES[(2 * k + j) % len(SCANNED_CLASSES)] for j in range(2)]
        graph = rng.choice(graphs)
        listed_graph, listed = rng.choice(graphs), rng.choice(LISTED_CLASSES)
        year, month = rng.choice(graphs).rsplit("/", 2)[-2:]
        analytic += [
            Request("analytic", "type-scan", "", f"SELECT ?s WHERE {{ ?s a <{cls}> }} ORDER BY ?s LIMIT 10 OFFSET {rng.randrange(0, 200)}")
            for cls in scanned
        ] + [
            Request("analytic", "scoped-join", "", f"SELECT ?d ?c WHERE {{ GRAPH <{graph}> {{ ?d a <{DATASET}> . ?d <{CREATOR}> ?c }} }} LIMIT 20"),
            Request("analytic", "scoped-list", "", f"SELECT ?s WHERE {{ GRAPH <{listed_graph}> {{ ?s a <{listed}> }} }}"),
            Request("analytic", "export", f"/export/{int(year)}/{int(month)}"),
        ]
    return {"lookup": lookup, "analytic": analytic}


def respond(store, request: Request, tracer=None) -> tuple[bytes, int]:
    """The body the endpoint must send for ``request``, computed in
    process through the public query and store functions, and the number
    of result rows (triples or quads for graph results)."""
    from kgforge import endpoint
    from kgforge.rdf import serialize_nquads, serialize_ntriples

    span = tracer.span if tracer is not None else _no_span
    if request.path == "/stats":
        with span("endpoint.exec"):
            stats = store.stats()
        with span("endpoint.encode"):
            body = json.dumps(stats.to_json_dict(), indent=2) + "\n"
        return body.encode(), 1
    if request.path.startswith("/export/"):
        year, month = (int(p) for p in request.path.split("/")[2:])
        suffix = f"/{year}/{month:02d}"
        with span("endpoint.exec"):
            graphs = [g for g in store.graphs() if g.value.endswith(suffix) or f"{suffix}/" in g.value]
            quads = [q for g in graphs for q in store.match(graph=g)]
        with span("endpoint.encode"):
            body = serialize_nquads(quads)
        return body.encode(), len(quads)
    with span("endpoint.parse"):
        query = endpoint.parse_query(request.query)
    if isinstance(query, endpoint.ConstructQuery):
        with span("endpoint.exec"):
            graph = endpoint.execute_construct(store, query)
        with span("endpoint.encode"):
            body = serialize_ntriples(graph)
        return body.encode(), len(graph)
    if isinstance(query, endpoint.SelectQuery):
        with span("endpoint.exec"):
            result = endpoint.execute_select(store, query)
        with span("endpoint.encode"):
            body = json.dumps(result.to_json_dict(), indent=2) + "\n"
        return body.encode(), len(result.rows)
    with span("endpoint.exec"):
        answer = endpoint.execute_ask(store, query)
    with span("endpoint.encode"):
        body = json.dumps({"head": {}, "boolean": answer}, indent=2) + "\n"
    return body.encode(), 1


@contextlib.contextmanager
def _no_span(name, label=None):
    yield None


def same_answer(request: Request, body: bytes, expected: bytes) -> bool:
    """Byte equality, or equal content when only the layout differs:
    equal JSON documents, or equal sets of N-Triples/N-Quads lines."""
    if body == expected:
        return True
    try:
        if request.kind == "stats" or (request.query is not None and request.kind != "construct"):
            return json.loads(body) == json.loads(expected)
        return sorted(body.decode().splitlines()) == sorted(expected.decode().splitlines())
    except (ValueError, UnicodeDecodeError):
        return False


class Stream(threading.Thread):
    """One persistent connection driving one request cycle in a closed
    loop until the deadline or for a number of rounds; records (request,
    latency seconds, correct) and, if the thread stops on an exception,
    its traceback in ``error``."""

    def __init__(self, port: int, requests: list[Request], expected: dict[Request, bytes],
                 start: threading.Barrier, deadline_s: float | None = None, rounds: int | None = None):
        super().__init__(daemon=True)
        self.port, self.requests, self.expected = port, requests, expected
        self.start_barrier, self.deadline_s, self.rounds = start, deadline_s, rounds
        self.samples: list[tuple[Request, float, bool]] = []
        self.started = self.finished = 0.0
        self.error: str | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            self.start_barrier.wait()
            self.started = time.perf_counter()
            deadline = None if self.deadline_s is None else self.started + self.deadline_s
            k = 0
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if self.rounds is not None and k >= self.rounds * len(self.requests):
                    break
                request = self.requests[k % len(self.requests)]
                k += 1
                sent = time.perf_counter()
                try:
                    conn.request("GET", request.url)
                    response = conn.getresponse()
                    body = response.read()
                    ok = response.status == 200 and same_answer(request, body, self.expected[request])
                except (OSError, http.client.HTTPException):
                    ok = False
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
                self.samples.append((request, time.perf_counter() - sent, ok))
        except Exception:
            # The stream is a thread boundary: report, do not vanish.
            self.error = traceback.format_exc()
        finally:
            self.finished = time.perf_counter()
            conn.close()


def drive(port: int, mix: dict[str, list[Request]], expected: dict[Request, bytes], *,
          seconds: float | None = None, rounds: int | None = None, streams=("lookup", "analytic")) -> list[Stream]:
    """Run the named streams at once, one connection each, and wait."""
    barrier = threading.Barrier(len(streams))
    threads = [Stream(port, mix[name], expected, barrier, seconds, rounds) for name in streams]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=(seconds or 0) + 120)
        if t.is_alive():
            t.error = "stream did not finish"
    return threads

"""A small read-only SPARQL endpoint over a persisted store.

The query language is the same subset the mapping engine evaluates: a
basic graph pattern, optionally scoped to one named graph, under a
SELECT, ASK, or CONSTRUCT head.  SELECT adds ORDER BY on a variable plus
LIMIT and OFFSET; everything else named in the SPARQL grammar is
rejected at parse time with a message naming the feature.  SELECT and
ASK are planned at parse time for the ordered join, which yields rows in
the documented order, so a SELECT reads only its first ``OFFSET +
LIMIT`` solutions and an ASK its first; CONSTRUCT runs through the
mapping engine's ``apply_rule``.

The HTTP server serves an immutable snapshot of the store.  ``refresh``
loads a new snapshot from disk, indexes its union graph, computes its
``/stats`` document and only then swaps it in atomically, so requests
see either the old corpus or the new one, never a mixture, and none
waits for that set-up; requests that arrive before the first snapshot
exists get 503 and a closed connection.

Requests run in forked worker processes, one per available CPU, each
holding the snapshot copy-on-write, so that one CPU-bound query does not
hold the interpreter lock of every other connection.  The parent accepts
each connection and passes its descriptor to the workers of the current
generation in turn; no worker writes back.  A ``refresh`` while
serving forks a new generation and retires the old one, whose workers
finish the connections they hold and exit; each connection therefore
answers from the snapshot that was current when it was accepted.  The
pool needs ``os.fork`` and ``socket.send_fds``, so it is POSIX-only.

An export is the canonical text of each matching graph in IRI order.
A graph whose stored file the snapshot's load certified by its manifest
digest, and which is still that file on disk, is sent from the file as
it is, with ``socket.sendfile``; any other graph is serialized from the
snapshot.  No file stays open past its request.

Routes:

    GET/POST /sparql          query via ?query= or a form body
    GET      /stats           corpus statistics as JSON
    GET      /export/Y/M      one monthly partition as N-Quads
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import socket
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import BinaryIO, NoReturn
from urllib.parse import parse_qs, urlparse

from ._scan import ScanError, Scanner
from .mapping import (
    MappingRule,
    OrderedPlan,
    TriplePattern,
    Variable,
    apply_rule,
    eval_bgp,
    ordered_plan,
    parse_prologue,
    parse_triples_block,
)
from .rdf import (
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    read_iri_or_pname,
    serialize_nquads,
    serialize_ntriples,
)
from .store import Store

SPARQL_JSON = "application/sparql-results+json"
NTRIPLES = "application/n-triples"
NQUADS = "application/n-quads"

#: Seconds a POST body may take to arrive before the handler answers 408.
BODY_TIMEOUT_S = 30.0
#: Bytes a POST body may declare; a larger one gets 413 without being read.
MAX_BODY_BYTES = 1 << 20
#: Seconds a connection may take to send a request line and its headers,
#: including the wait for the next request on a keep-alive connection.
HEADER_TIMEOUT_S = 30.0

#: Signals that stop a server; a worker takes their default action.
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)
#: Seconds between the serve loop's wakes: the longest ``stop`` waits
#: for the loop, and how often an idle parent tends its workers.
_POLL_S = 0.05


class QueryParseError(ScanError):
    """The query text is outside the supported subset."""


class _QueryScanner(Scanner):
    error_class = QueryParseError


# ---------------------------------------------------------------------------
# Query forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectQuery:
    variables: tuple[str, ...]
    where: tuple[TriplePattern, ...]
    graph: Iri | None = None
    order_by: str | None = None
    limit: int | None = None
    offset: int = 0
    #: The join that yields the rows in order, planned once here.
    plan: OrderedPlan = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", ordered_plan(self.where, self.order_by))


@dataclass(frozen=True, slots=True)
class AskQuery:
    where: tuple[TriplePattern, ...]
    graph: Iri | None = None
    #: The join, planned once here.
    plan: OrderedPlan = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", ordered_plan(self.where))


@dataclass(frozen=True, slots=True)
class ConstructQuery:
    rule: MappingRule
    graph: Iri | None = None


def parse_query(text: str) -> SelectQuery | AskQuery | ConstructQuery:
    sc = _QueryScanner(text)
    prefixes = parse_prologue(sc)
    iris: dict[str, Iri] = {}
    if sc.match_keyword("SELECT"):
        query = _parse_select(sc, prefixes, iris)
    elif sc.match_keyword("ASK"):
        where, graph = _parse_where(sc, prefixes, iris, keyword_optional=True)
        query = AskQuery(where=where, graph=graph)
    elif sc.match_keyword("CONSTRUCT"):
        query = _parse_construct(sc, prefixes, iris)
    else:
        raise sc.error("expected SELECT, ASK, or CONSTRUCT")
    sc.skip_ws()
    if not sc.at_end():
        raise sc.error("unexpected content after query")
    return query


def _parse_select(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> SelectQuery:
    sc.skip_ws()
    if sc.match_keyword("DISTINCT") or sc.match_keyword("REDUCED"):
        raise sc.error("unsupported feature: DISTINCT")
    star = sc.try_consume("*")
    names: list[str] = []
    if not star:
        sc.skip_ws()
        while sc.peek() == "?":
            name = sc.read_var_name()
            if name in names:
                raise sc.error(f"duplicate variable in projection: ?{name}")
            names.append(name)
            sc.skip_ws()
        if not names:
            raise sc.error("SELECT needs '*' or at least one variable")

    where, graph = _parse_where(sc, prefixes, iris, keyword_optional=False)
    if star:
        # First-appearance order, reading each pattern subject,
        # predicate, object.
        seen: list[str] = []
        for pattern in where:
            for term in pattern.terms():
                if isinstance(term, Variable) and term.name not in seen:
                    seen.append(term.name)
        names = seen

    order_by: str | None = None
    limit: int | None = None
    offset = 0
    sc.skip_ws()
    if sc.match_keyword("ORDER"):
        sc.skip_ws()
        if not sc.match_keyword("BY"):
            raise sc.error("expected BY after ORDER")
        sc.skip_ws()
        if sc.match_keyword("DESC") or sc.match_keyword("ASC"):
            raise sc.error("unsupported feature: ORDER BY direction")
        if sc.peek() != "?":
            raise sc.error("ORDER BY expects a variable")
        order_by = sc.read_var_name()
        sc.skip_ws()
    seen_limit = seen_offset = False
    while True:
        sc.skip_ws()
        if not seen_limit and sc.match_keyword("LIMIT"):
            limit = _read_count(sc, "LIMIT")
            seen_limit = True
        elif not seen_offset and sc.match_keyword("OFFSET"):
            offset = _read_count(sc, "OFFSET")
            seen_offset = True
        else:
            break
    return SelectQuery(
        variables=tuple(names),
        where=where,
        graph=graph,
        order_by=order_by,
        limit=limit,
        offset=offset,
    )


def _parse_construct(
    sc: Scanner, prefixes: dict[str, str], iris: dict[str, Iri]
) -> ConstructQuery:
    sc.skip_ws()
    sc.expect("{")
    template, _ = parse_triples_block(sc, prefixes, iris, allow_binds=False)
    where, graph = _parse_where(sc, prefixes, iris, keyword_optional=False)
    try:
        rule = MappingRule(
            name="construct-query",
            prefixes=prefixes,
            template=tuple(template),
            where=where,
            binds=(),
        )
    except ValueError as exc:
        raise sc.error(str(exc)) from None
    return ConstructQuery(rule=rule, graph=graph)


def _parse_where(
    sc: Scanner,
    prefixes: dict[str, str],
    iris: dict[str, Iri],
    *,
    keyword_optional: bool,
) -> tuple[tuple[TriplePattern, ...], Iri | None]:
    sc.skip_ws()
    if not sc.match_keyword("WHERE") and not keyword_optional:
        raise sc.error("expected WHERE")
    sc.skip_ws()
    sc.expect("{")
    sc.skip_ws()
    graph: Iri | None = None
    if not sc.looks_like_pname() and sc.match_keyword("GRAPH"):
        sc.skip_ws()
        if sc.peek() == "?":
            raise sc.error("unsupported feature: GRAPH variable")
        graph = read_iri_or_pname(sc, prefixes, iris)
        sc.skip_ws()
        sc.expect("{")
        patterns, _ = parse_triples_block(sc, prefixes, iris, allow_binds=False)
        sc.skip_ws()
        if not sc.try_consume("}"):
            raise sc.error("unterminated block: expected '}'")
    else:
        patterns, _ = parse_triples_block(sc, prefixes, iris, allow_binds=False)
    return tuple(patterns), graph


def _read_count(sc: Scanner, clause: str) -> int:
    """An unsigned integer of ASCII digits, at most ``sys.maxsize``."""
    sc.skip_ws()
    start = sc.pos
    while "0" <= sc.peek() <= "9":
        sc.advance()
    if sc.pos == start:
        raise sc.error(f"{clause} expects a non-negative integer")
    # The length check keeps int() within its digit limit.
    digits = sc.text[start : sc.pos].lstrip("0") or "0"
    if len(digits) > len(str(sys.maxsize)) or int(digits) > sys.maxsize:
        raise sc.error(f"{clause} is larger than {sys.maxsize}")
    return int(digits)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectResult:
    variables: tuple[str, ...]
    rows: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "head": {"vars": list(self.variables)},
            "results": {
                "bindings": [
                    {name: _term_json(row[name]) for name in self.variables if name in row}
                    for row in self.rows
                ]
            },
        }


def _term_json(term: Term) -> dict:
    if isinstance(term, Iri):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    assert isinstance(term, Literal)
    doc: dict = {"type": "literal", "value": term.lexical}
    if term.language is not None:
        doc["xml:lang"] = term.language
    elif term.datatype.value != XSD_STRING:
        doc["datatype"] = term.datatype.value
    return doc


def execute_select(store: Store, query: SelectQuery) -> SelectResult:
    """The query's rows: its solutions in the documented order, from
    ``OFFSET`` on, at most ``LIMIT`` of them.

    Rows sort by the ORDER BY variable first, then by every other
    variable in name order, comparing terms in canonical term order; an
    ORDER BY variable that the pattern does not bind orders nothing.
    The join yields solutions in that order, so it stops after the
    first ``OFFSET + LIMIT``.
    """
    count = None if query.limit is None else query.offset + query.limit
    solutions = eval_bgp(store.triples(query.graph), query.plan, limit=count)[query.offset :]
    if not set(query.plan.variables).issubset(query.variables):
        solutions = [
            {name: sol[name] for name in query.variables if name in sol} for sol in solutions
        ]
    return SelectResult(variables=query.variables, rows=tuple(solutions))


def execute_ask(store: Store, query: AskQuery) -> bool:
    """Whether the pattern has a solution; the join stops at the first."""
    return bool(eval_bgp(store.triples(query.graph), query.plan, limit=1))


def execute_construct(store: Store, query: ConstructQuery) -> Graph:
    return apply_rule(store.triples(query.graph), query.rule)


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


def _json_body(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


@dataclass(frozen=True, slots=True)
class Snapshot:
    """One loaded store and the ``/stats`` body computed from it."""

    store: Store
    stats_body: bytes


def _worker_count() -> int:
    """One worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(eq=False, slots=True)
class _Worker:
    """A worker process as the parent sees it."""

    pid: int
    #: The parent's end of the socketpair that connections go out on.
    pair: socket.socket


class _Server(ThreadingHTTPServer):
    """The HTTP server: in the parent it hands each connection to a
    worker, in a worker it runs a handler thread per connection."""

    endpoint: EndpointServer

    def process_request(self, request, client_address) -> None:
        self.endpoint._hand_off(request)

    def service_actions(self) -> None:
        self.endpoint._tend()


class EndpointServer:
    """Snapshot-serving HTTP endpoint; read-only by construction."""

    def __init__(self, store_dir: Path | str, host: str = "127.0.0.1", port: int = 0):
        self.store_dir = Path(store_dir)
        self.snapshot: Snapshot | None = None
        self._lock = threading.Lock()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.endpoint = self
        self._thread: threading.Thread | None = None
        self._serving = False
        #: The current generation, which new connections go to.
        self._workers: list[_Worker] = []
        #: Where in ``_workers`` the last connection went.
        self._turn = 0
        #: Every worker not yet reaped, retired ones included.
        self._children: list[_Worker] = []

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def refresh(self) -> None:
        """Load the persisted store, build its union view and its
        statistics, and swap it in atomically; while serving, fork a
        worker generation from it and retire the previous one."""
        store = Store.load(self.store_dir)
        store.triples()
        snapshot = Snapshot(store, _json_body(store.stats().to_json_dict()))
        with self._lock:
            self.snapshot = snapshot
            if self._serving:
                self._fork_generation()

    def start(self) -> None:
        """Serve in a background thread."""
        self._begin()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_S,), daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._begin()
        self._httpd.serve_forever(_POLL_S)

    def stop(self) -> None:
        """Stop serving, then terminate and reap every worker; safe
        whether or not the server was ever started."""
        with self._lock:
            serving, self._serving = self._serving, False
        if serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        with self._lock:
            # None is current now, so none is replaced once reaped.
            self._workers = []
            for worker in self._children:
                worker.pair.close()
                os.kill(worker.pid, signal.SIGTERM)
            while self._children:
                self._reap(self._children[0])
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # -- the worker pool ---------------------------------------------------
    # _begin, _hand_off and _tend take ``_lock``; the other methods run
    # under it.

    def _begin(self) -> None:
        """Fork the first generation, from the snapshot or, before there
        is one, to answer 503; the parent never runs a handler."""
        with self._lock:
            self._fork_generation()
            # Only now: if the fork fails, stop() must not wait for a
            # serve loop that never runs.
            self._serving = True

    def _fork_generation(self) -> None:
        fresh = [self._spawn() for _ in range(_worker_count())]
        retired, self._workers = self._workers, fresh
        for worker in retired:
            # End of file tells the worker to finish and exit; _tend
            # reaps it.  A shutdown, not a close: workers of another
            # server in this process may hold a copy of this end, which
            # would keep it open.
            worker.pair.shutdown(socket.SHUT_RDWR)

    def _spawn(self) -> _Worker:
        ours, theirs = socket.socketpair()
        # Blocked until the worker is on record, so that a stop signal
        # cannot leave it unknown to stop(); the worker unblocks them
        # once their default action is back.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                self._work(theirs, ours, mask)
            worker = _Worker(pid, ours)
            self._children.append(worker)
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        ours.setblocking(False)
        return worker

    def _work(self, pair: socket.socket, parent_end: socket.socket, mask) -> NoReturn:
        """The worker process: serve each connection the parent passes
        until the parent closes the pair, then finish them and exit."""
        status = 1
        try:
            for signum in _STOP_SIGNALS:
                signal.signal(signum, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            httpd = self._httpd
            httpd.socket.close()
            parent_end.close()
            for worker in self._children:
                worker.pair.close()
            # The collector never walks, so never copies, the inherited
            # snapshot.
            gc.freeze()
            # Handler threads that server_close() waits for.
            httpd.daemon_threads = False
            while True:
                message, fds, _, _ = socket.recv_fds(pair, 1, 1)
                if not message:
                    break
                conn = socket.socket(fileno=fds[0])
                try:
                    address = conn.getpeername()
                except OSError:  # the client has gone already
                    httpd.shutdown_request(conn)
                    continue
                ThreadingHTTPServer.process_request(httpd, conn, address)
            httpd.server_close()
            status = 0
        finally:
            os._exit(status)

    def _hand_off(self, request: socket.socket) -> None:
        """Pass an accepted connection to the next worker of the current
        generation."""
        with self._lock:
            for _ in range(len(self._workers) + 1):
                self._turn = (self._turn + 1) % len(self._workers)
                worker = self._workers[self._turn]
                try:
                    socket.send_fds(worker.pair, [b"."], [request.fileno()])
                    break
                except OSError:
                    # It has died and _tend has not reaped it yet; the
                    # reap forks its successor.
                    os.kill(worker.pid, signal.SIGKILL)
                    self._reap(worker)
            else:
                raise OSError("no worker accepted the connection")
        # Close, never shut down: the worker holds the connection now.
        request.close()

    def _reap(self, worker: _Worker, flags: int = 0) -> None:
        """Reap the worker if it has exited and, if it was of the current
        generation, fork its successor from the current snapshot."""
        if os.waitpid(worker.pid, flags)[0] == 0:
            return
        worker.pair.close()
        self._children.remove(worker)
        if worker in self._workers:
            self._workers[self._workers.index(worker)] = self._spawn()

    def _tend(self) -> None:
        """From the serve loop: reap every worker that has exited, which
        replaces those of the current generation."""
        with self._lock:
            for worker in list(self._children):
                self._reap(worker, os.WNOHANG)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Buffered: the headers and a small body leave in one send at
    # handle_one_request's flush, and a body larger than the buffer is
    # written through.  Without Nagle's algorithm the last segment of
    # such a body does not wait for the client's delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    def log_message(self, *args) -> None:
        pass

    def handle_one_request(self) -> None:
        # The deadline covers the request line and headers only: a
        # socket in timeout mode polls before every recv and send (see
        # do_POST), and a request in flight has no reason to.
        self.connection.settimeout(HEADER_TIMEOUT_S)
        super().handle_one_request()

    def parse_request(self) -> bool:
        try:
            requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            if len(requestline.split()) == 2:
                # The base class would take a request line without a
                # version as HTTP/0.9 and answer with no status line.
                self.command, self.requestline = None, requestline
                self.request_version = self.protocol_version
                self.close_connection = True
                self._error(400, "request line needs an HTTP version", close=True)
                return False
            return super().parse_request()
        finally:
            self.connection.settimeout(None)

    def _reply(self, status: int, content_type: str, body: bytes, *, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, doc: dict, status: int = 200, content_type: str = "application/json") -> None:
        self._reply(status, content_type, _json_body(doc))

    def _error(self, status: int, message: str, *, close: bool = False) -> None:
        self._reply(status, "text/plain; charset=utf-8", (message + "\n").encode(), close=close)

    def _acceptable(self, produced: str) -> bool:
        accept = self.headers.get("Accept")
        if accept is None:
            return True
        for entry in accept.split(","):
            media = entry.split(";")[0].strip().lower()
            if media in ("*/*", produced):
                return True
            if media.endswith("/*") and produced.startswith(media[:-1]):
                return True
        return False

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        snapshot = self.server.endpoint.snapshot
        if snapshot is None:
            # Close: this worker never gets a snapshot, its successors do.
            self._error(503, "snapshot not ready; try again shortly", close=True)
            return
        if parsed.path == "/sparql":
            params = parse_qs(parsed.query)
            queries = params.get("query", [])
            if len(queries) != 1:
                self._error(400, "exactly one 'query' parameter is required")
                return
            self._run_query(snapshot.store, queries[0])
        elif parsed.path == "/stats":
            self._reply(200, "application/json", snapshot.stats_body)
        elif parsed.path.startswith("/export/"):
            self._export(snapshot.store, parsed.path)
        else:
            self._error(404, f"unknown path: {parsed.path}")

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        snapshot = self.server.endpoint.snapshot
        if snapshot is None:
            # Close: this worker never gets a snapshot, its successors do.
            self._error(503, "snapshot not ready; try again shortly", close=True)
            return
        if parsed.path != "/sparql":
            self._error(404, f"unknown path: {parsed.path}")
            return
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # The body's end is unknown, so the connection cannot carry
            # another request.
            self._error(400, f"invalid Content-Length: {declared!r}", close=True)
            return
        if int(declared) > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes", close=True)
            return
        # The timeout covers the body read only: a socket in timeout mode
        # polls before every recv and send, and each poll releases the
        # GIL, which lengthens the tail of short requests that compete
        # with long ones.
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            body = self.rfile.read(int(declared)).decode("utf-8")
        except TimeoutError:
            # Part of the body may still be in flight, so the connection
            # cannot carry another request.
            self._error(408, "request body not received in time", close=True)
            return
        except UnicodeDecodeError:
            self._error(400, "request body is not valid UTF-8")
            return
        finally:
            self.connection.settimeout(None)
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if content_type == "application/sparql-query":
            query_text = body
        else:
            params = parse_qs(body)
            queries = params.get("query", [])
            if len(queries) != 1:
                self._error(400, "exactly one 'query' form field is required")
                return
            query_text = queries[0]
        self._run_query(snapshot.store, query_text)

    # -- helpers -----------------------------------------------------------

    def _run_query(self, snapshot: Store, text: str) -> None:
        try:
            query = parse_query(text)
        except QueryParseError as exc:
            self._error(400, f"query parse error: {exc}")
            return
        if isinstance(query, ConstructQuery):
            if not self._acceptable(NTRIPLES):
                self._error(406, f"can only produce {NTRIPLES}")
                return
            graph = execute_construct(snapshot, query)
            self._reply(200, NTRIPLES, serialize_ntriples(graph).encode())
            return
        if not self._acceptable(SPARQL_JSON):
            self._error(406, f"can only produce {SPARQL_JSON}")
            return
        if isinstance(query, SelectQuery):
            result = execute_select(snapshot, query)
            self._json(result.to_json_dict(), content_type=SPARQL_JSON)
        else:
            answer = execute_ask(snapshot, query)
            self._json({"head": {}, "boolean": answer}, content_type=SPARQL_JSON)

    def _export(self, snapshot: Store, path: str) -> None:
        parts = path.removeprefix("/export/").split("/")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            self._error(404, "export paths look like /export/<year>/<month>")
            return
        year, month = int(parts[0]), int(parts[1])
        # Month graphs end in /Y/MM and day graphs in /Y/MM/DD.
        partition = re.compile(rf"/{year}/{month:02d}(/[0-9]{{2}})?\Z")
        matching = sorted(
            (g for g in snapshot.graphs() if partition.search(g.value)), key=lambda g: g.value
        )
        if not matching:
            self._error(404, f"no partition for {year}-{month:02d}")
            return
        # Canonical order sorts by graph first, so the export is the
        # matching graphs' canonical texts in IRI order.  A certified
        # file is that text already; any other graph is serialized.
        parts: list[tuple[BinaryIO | bytes, int]] = []
        try:
            for g in matching:
                certified = snapshot.open_certified(g)
                if certified is None:
                    data = serialize_nquads(snapshot.triples(g), g).encode()
                    certified = data, len(data)
                parts.append(certified)
            length = sum(size for _, size in parts)
            self.send_response(200)
            self.send_header("Content-Type", NQUADS)
            self.send_header("Content-Length", str(length))
            self.end_headers()
            for part, size in parts:
                if isinstance(part, bytes):
                    self.wfile.write(part)
                    continue
                self.wfile.flush()
                if self.connection.sendfile(part, 0, size) != size:
                    # The file shrank in place: the body falls short of
                    # its Content-Length, so the connection cannot go on.
                    self.close_connection = True
                    return
        finally:
            for part, _ in parts:
                if not isinstance(part, bytes):
                    part.close()

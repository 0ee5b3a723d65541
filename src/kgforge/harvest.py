"""Harvesting raw JSON-LD records into a content-addressed cache.

Records arrive either from a paged HTTP API or, for offline runs and
tests, from a directory of JSON files.  Each record travels in a small
envelope::

    {"id": "10.14272/<inchikey>/<analysis>",
     "submitted": "2014-05-17",
     "metadata": { ... schema.org JSON-LD ... }}

The cache is addressed by the SHA-256 of the envelope bytes, so an
unchanged record costs nothing to re-harvest and the transform stage can
read raw payloads without touching the source again.  Each envelope is
hashed and decoded once per run, by :func:`parse_envelope`; one that is
not UTF-8 JSON without a byte order mark (RFC 8259) is skipped as
malformed.  A run writes the cache's ``index.json`` once per
``page_size`` new entries and once when it ends, so its writes grow
linearly with the records it adds.

The checkpoint is an append-only journal, one JSON-encoded source id per
line, appended and flushed before each record is yielded.  It makes an
interrupted run resumable without duplicates; a completed run removes it.

Time and randomness are injected (``Clock``, ``random.Random``) so
backoff and rate-limit behavior are testable without real waiting.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import dataclass
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from ._atomic import write_atomic
from .jsonld import RawRecord, parse_payload

logger = logging.getLogger(__name__)

MODES = ("directory", "http")

INDEX_NAME = "index.json"
CHECKPOINT_NAME = "harvest.checkpoint.json"

#: Longest single backoff pause, seconds.
BACKOFF_CAP = 30.0


class HarvestError(RuntimeError):
    """The source could not be read, even after retries."""


class CacheCorruption(RuntimeError):
    """The cache index or a cached envelope is damaged; the message names
    the file."""


@dataclass(frozen=True, slots=True)
class SourceConfig:
    base_url: str
    mode: str = "directory"
    page_size: int = 100
    since: date | None = None
    rate_limit: float = 5.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not isinstance(self.base_url, str) or not self.base_url:
            raise ValueError("base_url must be a non-empty string")
        if self.page_size < 1:
            raise ValueError("page_size must be at least 1")
        if self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")


class Clock:
    """Wall and monotonic time plus sleeping, swappable in tests."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc)

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


@dataclass(frozen=True, slots=True)
class CacheEntry:
    source_id: str
    submission_date: date
    content_digest: str
    path: Path
    fetched_at: datetime


class RawCache:
    """Content-addressed envelope store: ``<digest[:2]>/<digest>.json``
    blobs plus an ``index.json`` mapping source ids to digests."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self._index: dict[str, dict] = {}
        #: Whether entries were added since the index file was last written.
        self._dirty = False
        self.index_path = self.directory / INDEX_NAME
        if self.index_path.exists():
            try:
                self._index = json.loads(self.index_path.read_text(encoding="utf-8"))
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise CacheCorruption(f"{self.index_path} is not JSON: {exc}") from None
            if not isinstance(self._index, dict):
                raise CacheCorruption(f"{self.index_path} is not a JSON object")

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._index

    def get(self, source_id: str) -> CacheEntry | None:
        doc = self._index.get(source_id)
        if doc is None:
            return None
        try:
            return CacheEntry(
                source_id=source_id,
                submission_date=date.fromisoformat(doc["submitted"]),
                content_digest=doc["digest"],
                path=self.directory / doc["file"],
                fetched_at=datetime.fromisoformat(doc["fetched_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheCorruption(f"{self.index_path}: bad entry {source_id!r}: {exc!r}") from None

    def put(
        self, source_id: str, submitted: date, envelope: bytes, fetched_at: datetime
    ) -> CacheEntry:
        """Store one envelope and write the index at once."""
        digest = hashlib.sha256(envelope).hexdigest()
        self.add(source_id, submitted, envelope, digest, fetched_at)
        self.flush()
        return self.get(source_id)

    def add(
        self,
        source_id: str,
        submitted: date,
        envelope: bytes,
        digest: str,
        fetched_at: datetime,
    ) -> None:
        """Store one envelope whose SHA-256 ``digest`` the caller already
        knows; the index is written by the next :meth:`flush`."""
        relative = f"{digest[:2]}/{digest}.json"
        _write_blob(self.directory / relative, envelope)
        self._index[source_id] = {
            "digest": digest,
            "file": relative,
            "submitted": submitted.isoformat(),
            "fetched_at": fetched_at.isoformat(),
        }
        self._dirty = True

    def flush(self) -> None:
        """Write the index if entries were added since it was last written."""
        if not self._dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        write_atomic(
            self.index_path,
            json.dumps(self._index, indent=2, sort_keys=True) + "\n",
        )
        self._dirty = False

    def read_envelope(self, entry: CacheEntry) -> bytes:
        """The stored envelope bytes, verified against the digest."""
        try:
            data = entry.path.read_bytes()
        except OSError as exc:
            raise CacheCorruption(f"cannot read {entry.source_id!r} from the cache: {exc}") from None
        if hashlib.sha256(data).hexdigest() != entry.content_digest:
            raise CacheCorruption(
                f"{entry.path} for {entry.source_id!r} does not match its digest"
            )
        return data

    def entries(self) -> Iterator[CacheEntry]:
        """All cache entries in source-id order."""
        for source_id in sorted(self._index):
            yield self.get(source_id)

    def load_record(self, entry: CacheEntry) -> RawRecord:
        return RawRecord(*parse_envelope(self.read_envelope(entry)), entry.fetched_at)


def _write_blob(path: Path, envelope: bytes) -> None:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, envelope)


def _dumps(value: Any) -> str:
    """``json.dumps(value)``, except that a ``Decimal`` keeps its digits:
    a number of an HTTP page maps to the literal it would from a file."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dumps, value)) + "]"
    if isinstance(value, Decimal):
        return str(value)
    return json.dumps(value)


def parse_envelope(raw: bytes) -> tuple[str, date, Any]:
    """Decode envelope bytes (UTF-8 JSON, no BOM) once, keeping decimal
    fractions exact; returns (source id, submission date, metadata)."""
    try:
        doc = parse_payload(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"envelope is not UTF-8: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a non-JSON constant
        raise ValueError(f"envelope is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("envelope must be a JSON object")
    source_id = doc.get("id")
    if not isinstance(source_id, str) or not source_id:
        raise ValueError("envelope is missing a non-empty 'id'")
    submitted = doc.get("submitted")
    if not isinstance(submitted, str):
        raise ValueError("envelope is missing 'submitted'")
    try:
        when = date.fromisoformat(submitted)
    except ValueError as exc:
        raise ValueError(f"bad 'submitted' date: {submitted!r}") from exc
    if "metadata" not in doc:
        raise ValueError("envelope is missing 'metadata'")
    return source_id, when, doc["metadata"]


@dataclass
class HarvestStats:
    pages_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    skipped_malformed: int = 0
    filtered_out: int = 0
    yielded: int = 0
    resumed_past: int = 0


class Harvester:
    """One harvesting run over a configured source."""

    def __init__(
        self,
        config: SourceConfig,
        cache: RawCache,
        *,
        checkpoint_path: Path | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
    ):
        self.config = config
        self.cache = cache
        self.checkpoint_path = checkpoint_path
        self.clock = clock or Clock()
        self.rng = rng or random.Random()
        self.stats = HarvestStats()
        self._last_request: float | None = None

    # -- the run ---------------------------------------------------------

    def records(self) -> Iterator[RawRecord]:
        """Yield each source record exactly once, in source order.

        Each record's id is appended to the checkpoint journal, and
        flushed, before it is yielded, so a consumer that stops early can
        resume without re-yielding; full consumption removes the
        checkpoint.  The journal is opened once, at the first append, and
        closed when the run ends.  The cache index is written once per
        ``page_size`` new entries and when the run ends, however it ends.
        """
        done = self._load_checkpoint()
        directory = self.config.mode == "directory"
        journal: BinaryIO | None = None
        try:
            for raw in self._directory_envelopes() if directory else self._http_envelopes():
                try:
                    source_id, submitted, metadata = parse_envelope(raw)
                except ValueError as exc:
                    self.stats.skipped_malformed += 1
                    logger.warning("skipping malformed record: %s", exc)
                    continue
                cached = self.cache.get(source_id)
                digest = hashlib.sha256(raw).hexdigest()
                if cached is not None and cached.content_digest == digest:
                    self.stats.cache_hits += 1
                    fetched_at = cached.fetched_at
                    # The bytes hash to the index digest, so they restore
                    # a deleted blob without touching the index.
                    _write_blob(cached.path, raw)
                else:
                    self.stats.cache_misses += 1
                    fetched_at = self.clock.now()
                    self.cache.add(source_id, submitted, raw, digest, fetched_at)
                    if self.stats.cache_misses % self.config.page_size == 0:
                        self.cache.flush()
                if self.config.since is not None and submitted < self.config.since:
                    self.stats.filtered_out += 1
                    continue
                if source_id in done:
                    self.stats.resumed_past += 1
                    continue
                done.add(source_id)
                if self.checkpoint_path is not None:
                    if journal is None:
                        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
                        journal = self.checkpoint_path.open("ab")
                    journal.write(json.dumps(source_id).encode("ascii") + b"\n")
                    journal.flush()
                self.stats.yielded += 1
                yield RawRecord(source_id, submitted, metadata, fetched_at)
        finally:
            if journal is not None:
                journal.close()
            self.cache.flush()
        if self.checkpoint_path is not None:
            self.checkpoint_path.unlink(missing_ok=True)

    # -- checkpointing -----------------------------------------------------

    def _load_checkpoint(self) -> set[str]:
        """The ids a previous run yielded: one JSON string per journal
        line.  An unterminated last line is an append that never finished,
        so its record was never yielded; it is cut off.  Any other damage
        discards the journal with a warning."""
        path = self.checkpoint_path
        if path is None or not path.exists():
            return set()
        data = path.read_bytes()
        cut = data.rfind(b"\n") + 1
        torn = data[cut:]
        try:
            if torn and not torn.startswith(b'"'):
                raise ValueError(f"unterminated line {torn[:40]!r}")
            done = set()
            for line in data[:cut].splitlines():
                source_id = json.loads(line)
                if not isinstance(source_id, str):
                    raise TypeError(f"line {line[:40]!r} is not a JSON string")
                done.add(source_id)
        except (ValueError, TypeError, RecursionError) as exc:
            logger.warning("corrupt checkpoint %s (%s); starting over", path, exc)
            path.unlink()
            return set()
        if torn:
            os.truncate(path, cut)
        return done

    # -- sources -----------------------------------------------------------

    def _directory_envelopes(self) -> Iterator[bytes]:
        root = Path(self.config.base_url)
        if not root.is_dir():
            raise HarvestError(f"source directory does not exist: {root}")
        for path in sorted(root.glob("*.json")):
            yield path.read_bytes()

    def _http_envelopes(self) -> Iterator[bytes]:
        url: str | None = self._page_url(1)
        page = 1
        while url is not None:
            body = self._fetch_json(url)
            if isinstance(body, list):
                records, has_next, next_url = body, False, None
            elif isinstance(body, dict) and isinstance(body.get("records"), list):
                records = body["records"]
                has_next = "next" in body
                next_url = body.get("next")
            else:
                raise HarvestError(f"unexpected page shape from {url}")
            if not records:
                return
            for doc in records:
                yield _dumps(doc).encode("utf-8")
            if has_next:
                # The source drives pagination itself; a null link ends
                # the run without a trailing empty-page fetch.
                url = next_url
            else:
                page += 1
                url = self._page_url(page)

    def _page_url(self, page: int) -> str:
        separator = "&" if "?" in self.config.base_url else "?"
        return (
            f"{self.config.base_url}{separator}"
            f"page={page}&per_page={self.config.page_size}"
        )

    def _fetch_json(self, url: str):
        # Only ``http`` mode needs urllib.request; imported here so that
        # directory harvests and the other commands skip it.
        import urllib.error
        import urllib.request

        last_error = ""
        for attempt in range(self.config.max_retries + 1):
            self._respect_rate_limit()
            try:
                with urllib.request.urlopen(url, timeout=30) as response:
                    body = json.loads(response.read(), parse_float=Decimal)
                self.stats.pages_fetched += 1
                return body
            except (urllib.error.URLError, ValueError, RecursionError, OSError) as exc:
                # ValueError or RecursionError: a body that is not UTF-8
                # JSON, nests too deeply or holds an over-long integer.
                last_error = str(exc)
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response holds its socket open
                if attempt == self.config.max_retries:
                    break
                delay = min(BACKOFF_CAP, 0.5 * (2**attempt))
                # Jitter into [delay/2, delay) so synchronized clients
                # do not retry in lockstep.
                self.clock.sleep(delay * (0.5 + self.rng.random() / 2))
        raise HarvestError(
            f"giving up on {url} after {self.config.max_retries + 1} attempts: "
            f"{last_error}"
        )

    def _respect_rate_limit(self) -> None:
        interval = 1.0 / self.config.rate_limit
        now = self.clock.monotonic()
        if self._last_request is not None:
            wait = self._last_request + interval - now
            if wait > 0:
                self.clock.sleep(wait)
                now = self.clock.monotonic()
        self._last_request = now

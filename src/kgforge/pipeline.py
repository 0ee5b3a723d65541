"""Pipeline configuration and the five batch stages.

A run works through one working layout on disk:

    cache/          raw envelopes, content-addressed (harvest)
    staging/*.nq    mapped quads, one file per named graph (transform)
    store/          the persistent quad store (load)
    store/validation.json   the latest validation report (validate)

Each stage consumes only the previous stage's artifact, so every command
is rerunnable in isolation and ``run`` is nothing but the five stages in
order.  All stage functions are pure with respect to the config: same
config and same inputs give the same artifacts.

The two batch stages are sized by what changed.  Transform re-maps only
the named graphs whose fingerprint (their records' content digests, the
rule texts, the JSON-LD context, the mint config and the mapping code)
differs from the one recorded in ``staging/summary.json``, and reuses
the staged files of the rest.  Load replaces each stored graph whose
staged file differs from its stored file and skips the others unparsed;
graphs without a staged file are left alone.  Every file is written
through a temporary file and a rename.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from ._atomic import write_atomic
from .harvest import (
    CHECKPOINT_NAME,
    CacheEntry,
    Harvester,
    HarvestStats,
    RawCache,
    SourceConfig,
)
from .jsonld import (
    RawRecord,
    default_context_text,
    load_default_context,
    relabel_blank_nodes,
    to_rdf,
)
from .mapping import MappingRule, apply_rule, parse_rules, rule_pack_sources
from .mint import MintConfig, mint_graph_iri, mint_resource_iri
# Staged files are read by ``read_nquads``; ``parse_nquads`` stays
# importable here because perfbench/tracing.py patches it by name.
from .rdf import Graph, Iri, parse_nquads, serialize_nquads  # noqa: F401
from .store import MANIFEST_NAME, Store, graph_filename, read_nquads
from .validation import (
    PatternRule,
    Shape,
    ValidationReport,
    load_patterns,
    load_shapes,
    parse_patterns,
    parse_shapes,
    validate,
)
from .vocab import load_table

logger = logging.getLogger(__name__)

REPORT_NAME = "validation.json"
STAGING_SUMMARY_NAME = "summary.json"


class ConfigError(ValueError):
    """The configuration file or its overrides cannot be used."""


class StageError(RuntimeError):
    """A pipeline stage could not produce its artifact."""


class LockHeld(StageError):
    """Another pipeline run owns this store directory."""


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    source: SourceConfig
    mint: MintConfig
    store_dir: Path
    cache_dir: Path
    staging_dir: Path
    rules_dir: Path | None = None
    shapes_dir: Path | None = None
    host: str = "127.0.0.1"
    port: int = 8416

    @property
    def checkpoint_path(self) -> Path:
        return self.cache_dir / CHECKPOINT_NAME

    @property
    def report_path(self) -> Path:
        return self.store_dir / REPORT_NAME


#: Every configuration key -> (its ``KGFORGE_*`` variable, its JSON kind).
_KEYS = {
    "source.base_url": ("KGFORGE_SOURCE_BASE_URL", "string"),
    "source.mode": ("KGFORGE_SOURCE_MODE", "string"),
    "source.page_size": ("KGFORGE_SOURCE_PAGE_SIZE", "integer"),
    "source.since": ("KGFORGE_SOURCE_SINCE", "date"),
    "source.rate_limit": ("KGFORGE_SOURCE_RATE_LIMIT", "number"),
    "source.max_retries": ("KGFORGE_SOURCE_MAX_RETRIES", "integer"),
    "mint.base": ("KGFORGE_MINT_BASE", "iri"),
    "mint.graph_granularity": ("KGFORGE_MINT_GRAPH_GRANULARITY", "string"),
    "store_dir": ("KGFORGE_STORE_DIR", "path"),
    "cache_dir": ("KGFORGE_CACHE_DIR", "path"),
    "staging_dir": ("KGFORGE_STAGING_DIR", "path"),
    "rules_dir": ("KGFORGE_RULES_DIR", "path"),
    "shapes_dir": ("KGFORGE_SHAPES_DIR", "path"),
    "endpoint.host": ("KGFORGE_HOST", "string"),
    "endpoint.port": ("KGFORGE_PORT", "port"),
}
_SECTIONS = {name.partition(".")[0] for name in _KEYS if "." in name}

#: What a value of each kind must be.  ``null`` stands for the default
#: of a date or a path; a bool is neither an integer nor a number.
_KINDS = {
    "string": "a string",
    "path": "a string",
    "iri": "a string",
    "date": "an ISO date string",
    "integer": "an integer",
    "number": "a finite number",
    "port": "an integer from 0 to 65535",
}


def _field(name: str, kind: str, value: Any) -> Any:
    """The config field a JSON *value* of *kind* sets; ValueError when
    it is not one."""
    if kind in ("integer", "port"):
        ok = type(value) is int and (kind == "integer" or 0 <= value <= 65535)
    elif kind == "number":
        ok = type(value) is int or (type(value) is float and math.isfinite(value))
    else:
        ok = isinstance(value, str) or (value is None and kind in ("date", "path"))
    if not ok:
        raise ValueError(f"{name} must be {_KINDS[kind]}")
    try:
        if kind == "iri":
            return Iri(value)
        return date.fromisoformat(value) if kind == "date" and value is not None else value
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _env_value(kind: str, text: str) -> Any:
    """The JSON value a ``KGFORGE_*`` text stands for; text that does
    not parse as a number stays text, which its kind then rejects."""
    parse = {"integer": int, "port": int, "number": float}.get(kind)
    try:
        return text if parse is None else parse(text)
    except ValueError:
        return text


def load_config(
    path: Path | str, env: Mapping[str, str] | None = None
) -> PipelineConfig:
    """Read a config file, apply ``KGFORGE_*`` overrides, resolve paths."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_json_dict(doc, base_dir=path.parent, env=env)


def config_from_json_dict(
    doc: dict, *, base_dir: Path | str = ".", env: Mapping[str, str] | None = None
) -> PipelineConfig:
    """Check *doc* and the ``KGFORGE_*`` variables of *env* against the
    key table and build the config; a section that is not an object, an
    unknown key or a value of the wrong kind is a ConfigError."""
    env = os.environ if env is None else env
    base_dir = Path(base_dir)
    try:
        given: dict[str, Any] = {}
        for name, value in doc.items():
            if name not in _SECTIONS:
                given[name] = value
            elif not isinstance(value, (dict, type(None))):
                raise ValueError(f"{name} must be a JSON object")
            else:  # a null section takes every default
                given.update((f"{name}.{key}", v) for key, v in (value or {}).items())
        for name in given:
            if name not in _KEYS:
                raise ValueError(f"unknown key {name}")
        fields: dict[str, dict[str, Any]] = {}
        for name, (variable, kind) in _KEYS.items():
            if variable in env:
                value = _field(variable, kind, _env_value(kind, env[variable]))
            elif name in given:
                value = _field(name, kind, given[name])
            else:
                continue
            section, _, key = name.rpartition(".")
            fields.setdefault(section, {})[key] = value
        for name in ("source.base_url", "mint.base"):
            section, _, key = name.partition(".")
            if key not in fields.get(section, {}):
                raise ConfigError(f"config is missing {name}")
        # The top-level keys are the paths; ``/`` keeps an absolute one.
        dirs = {key: base_dir / p for key, p in fields.get("", {}).items() if p is not None}
        return PipelineConfig(
            source=SourceConfig(**fields["source"]),
            mint=MintConfig(**fields["mint"]),
            store_dir=dirs.get("store_dir", base_dir / "store"),
            cache_dir=dirs.get("cache_dir", base_dir / "cache"),
            staging_dir=dirs.get("staging_dir", base_dir / "staging"),
            rules_dir=dirs.get("rules_dir"),
            shapes_dir=dirs.get("shapes_dir"),
            **fields.get("endpoint", {}),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


@contextmanager
def store_lock(store_dir: Path):
    """One pipeline run at a time per store directory.

    The lock is a sibling file created with O_EXCL; a crash can leave it
    behind, in which case the error message says which file to remove.
    """
    store_dir.parent.mkdir(parents=True, exist_ok=True)
    lock = store_dir.with_name(store_dir.name + ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockHeld(
            f"another run holds {lock}; remove the file if it is stale"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Rule and shape resolution
# ---------------------------------------------------------------------------


def rule_sources(config: PipelineConfig) -> tuple[tuple[str, str], ...]:
    """``(name, text)`` of each mapping rule, in application order: the
    packaged pack, or the ``*.rq`` files in ``rules_dir``."""
    if config.rules_dir is None:
        return rule_pack_sources()
    sources = []
    for path in sorted(config.rules_dir.glob("*.rq")):
        with _config_file(path):
            sources.append((path.name, path.read_text(encoding="utf-8")))
    if not sources:
        raise ConfigError(f"no .rq rules found in {config.rules_dir}")
    return tuple(sources)


def _parse_rules(
    config: PipelineConfig, sources: Iterable[tuple[str, str]]
) -> tuple[MappingRule, ...]:
    """``parse_rules``, with a bad rule a ConfigError naming its file."""
    rules: list[MappingRule] = []
    for name, text in sources:
        with _config_file(config.rules_dir / name if config.rules_dir else name):
            rules += parse_rules([(name, text)])
    return tuple(rules)


def load_shape_files(
    config: PipelineConfig,
) -> tuple[tuple[Shape, ...], tuple[PatternRule, ...]]:
    if config.shapes_dir is None:
        return load_shapes(), load_patterns()
    table = load_table()
    shapes_path = config.shapes_dir / "shapes.json"
    patterns_path = config.shapes_dir / "patterns.json"
    shapes: tuple[Shape, ...] = ()
    patterns: tuple[PatternRule, ...] = ()
    if shapes_path.exists():
        with _config_file(shapes_path):
            shapes = parse_shapes(json.loads(shapes_path.read_text(encoding="utf-8")), table)
    if patterns_path.exists():
        with _config_file(patterns_path):
            patterns = parse_patterns(json.loads(patterns_path.read_text(encoding="utf-8")), table)
    return shapes, patterns


@contextmanager
def _config_file(path: Path | str):
    """Reading or parsing the rule or shape file ``path``: an unreadable
    file, a decode or parse error, a missing key, a wrong JSON type or an
    unknown vocabulary term is a ConfigError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"bad configuration: {path}: missing key {exc}") from exc
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad configuration: {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HarvestResult:
    records: int
    stats: HarvestStats


def stage_harvest(config: PipelineConfig, **harvester_kwargs) -> HarvestResult:
    """Fetch every source record into the cache; the count is how many
    records this run yielded (resumed runs yield only the remainder)."""
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    harvester = Harvester(
        config.source,
        RawCache(config.cache_dir),
        checkpoint_path=config.checkpoint_path,
        **harvester_kwargs,
    )
    count = sum(1 for _ in harvester.records())
    return HarvestResult(records=count, stats=harvester.stats)


class TransformError(StageError):
    pass


def transform_record(
    record: RawRecord,
    mint: MintConfig,
    rules: Iterable[MappingRule],
    context=None,
) -> tuple[Iri, Graph, dict[str, int]]:
    """Map one raw record to target triples.

    Returns the record's named-graph IRI (from its submission date), the
    mapped triples, and the per-rule output counts.  The record's root
    node gets the minted resource IRI injected as ``@id`` before
    conversion; rsplitting the envelope id keeps a DOI-style source id
    with slashes intact and treats the last segment as the analysis
    suffix.
    """
    context = context or load_default_context()
    source_id, _, suffix = record.source_id.rpartition("/")
    if not source_id or not suffix:
        raise TransformError(
            f"record id {record.source_id!r} does not split into "
            "source id and analysis suffix"
        )
    when = record.submission_date
    resource = mint_resource_iri(mint, when.year, when.month, source_id, suffix)
    if not isinstance(record.payload, Mapping):
        raise TransformError(f"record {record.source_id!r} payload is not an object")
    payload = {**record.payload, "@id": resource.value}
    raw = to_rdf(dataclasses.replace(record, payload=payload), context)
    scoped = relabel_blank_nodes(raw, record.source_id)
    per_rule: dict[str, int] = {}
    mapped: set = set()
    for rule in rules:
        out = apply_rule(scoped, rule)
        per_rule[rule.name] = len(out)
        mapped.update(out)
    return mint_graph_iri(mint, when), Graph(mapped), per_rule


@dataclass(frozen=True, slots=True)
class TransformResult:
    records: int
    skipped: int
    quads: int
    graphs: int
    per_rule: dict[str, int]


#: Modules whose code decides what a record maps to.  Their source is part
#: of every graph's fingerprint, so an upgrade re-stages everything once.
_MAPPING_MODULES = ("_scan", "rdf", "jsonld", "mint", "mapping", "harvest", "pipeline")


def _mapping_inputs(config: PipelineConfig, sources: Iterable[tuple[str, str]]):
    """A SHA-256 over everything but the records that decides the staged
    quads: mapping code, rules, JSON-LD context and mint config."""
    package = resources.files(__package__)
    parts = [package.joinpath(f"{name}.py").read_bytes() for name in _MAPPING_MODULES]
    parts += [f"{name}\n{text}".encode("utf-8") for name, text in sources]
    parts += [default_context_text().encode("utf-8"), repr(config.mint).encode("utf-8")]
    digest = hashlib.sha256()
    for part in parts:  # length-prefixed, so no two inputs hash alike
        digest.update(b"%d\n" % len(part))
        digest.update(part)
    return digest


def _read_staging_summary(staging_dir: Path) -> dict[str, dict]:
    """Graph IRI -> summary entry of the last transform; an unreadable
    summary counts as none."""
    try:
        doc = json.loads((staging_dir / STAGING_SUMMARY_NAME).read_text(encoding="utf-8"))
        graphs = doc["graphs"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError):
        return {}
    if not isinstance(graphs, dict):
        return {}
    return {g: meta for g, meta in graphs.items() if isinstance(meta, dict)}


def _sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _map_graph(
    cache: RawCache,
    entries: list[CacheEntry],
    mint: MintConfig,
    rules: tuple[MappingRule, ...],
    context,
) -> tuple[set, dict[str, int], int, int]:
    """Map one graph's records: (triples, per-rule counts, records
    mapped, records skipped)."""
    triples: set = set()
    per_rule = {rule.name: 0 for rule in rules}
    records = skipped = 0
    for entry in entries:
        try:
            record = cache.load_record(entry)
            _, mapped, counts = transform_record(record, mint, rules, context)
        except (TransformError, ValueError) as exc:  # JsonLdError is a ValueError
            skipped += 1
            logger.warning("skipping record %r: %s", entry.source_id, exc)
            continue
        records += 1
        for name, n in counts.items():
            per_rule[name] += n
        triples.update(mapped)
    return triples, per_rule, records, skipped


def stage_transform(config: PipelineConfig) -> TransformResult:
    """Stage every cached record as N-Quads, one canonical file per
    named graph, and describe the files in ``summary.json``.

    Records are grouped by the graph their submission date mints.  A
    graph is re-mapped only when its fingerprint differs from the one
    in the last summary, or its staged file no longer hashes to the
    recorded ``sha256``; otherwise file and summary entry are reused.
    The totals returned count every graph, reused or not.
    """
    cache = RawCache(config.cache_dir)
    sources = rule_sources(config)
    inputs = _mapping_inputs(config, sources)
    by_graph: dict[Iri, list[CacheEntry]] = {}
    for entry in cache.entries():
        graph_iri = mint_graph_iri(config.mint, entry.submission_date)
        by_graph.setdefault(graph_iri, []).append(entry)
    previous = _read_staging_summary(config.staging_dir)
    config.staging_dir.mkdir(parents=True, exist_ok=True)

    rules = context = None
    summary: dict[str, dict] = {}
    skipped = 0
    for graph_iri in sorted(by_graph, key=lambda g: g.value):
        entries = by_graph[graph_iri]
        digest = inputs.copy()
        digest.update(
            json.dumps([[e.source_id, e.content_digest] for e in entries]).encode("utf-8")
        )
        fingerprint = digest.hexdigest()
        path = config.staging_dir / graph_filename(graph_iri)
        meta = previous.get(graph_iri.value)
        if (
            meta is None
            or meta.get("fingerprint") != fingerprint
            or meta.get("file") != path.name
            or meta.get("sha256") != _sha256_file(path)
        ):
            if rules is None:
                rules, context = _parse_rules(config, sources), load_default_context()
            triples, per_rule, records, dropped = _map_graph(
                cache, entries, config.mint, rules, context
            )
            if not records:
                skipped += dropped
                continue
            data = serialize_nquads(triples, graph_iri).encode("utf-8")
            write_atomic(path, data)
            meta = {
                "file": path.name,
                "fingerprint": fingerprint,
                "per_rule": per_rule,
                "quads": len(triples),
                "sha256": hashlib.sha256(data).hexdigest(),
                "skipped": dropped,
                "source_records": records,
            }
        summary[graph_iri.value] = meta

    staged = {meta["file"] for meta in summary.values()}
    for stale in config.staging_dir.glob("*.nq"):
        if stale.name not in staged:
            stale.unlink()
    per_rule_total = {name: 0 for name, _ in sources}
    for meta in summary.values():
        skipped += meta["skipped"]
        for name, n in meta["per_rule"].items():
            per_rule_total[name] = per_rule_total.get(name, 0) + n
    write_atomic(
        config.staging_dir / STAGING_SUMMARY_NAME,
        json.dumps({"graphs": summary, "per_rule": per_rule_total}, indent=2, sort_keys=True)
        + "\n",
    )
    return TransformResult(
        records=sum(meta["source_records"] for meta in summary.values()),
        skipped=skipped,
        quads=sum(meta["quads"] for meta in summary.values()),
        graphs=len(summary),
        per_rule=per_rule_total,
    )


@dataclass(frozen=True, slots=True)
class LoadResult:
    inserted: int
    removed: int
    total: int
    graphs: int
    #: The loaded store, for later stages of the same run.
    store: Store = dataclasses.field(repr=False, compare=False)


def stage_load(config: PipelineConfig, *, fresh: bool = False) -> LoadResult:
    """Replace each stored graph by its staged file and persist the store.

    A staged file that hashes to the manifest ``sha256`` of its stored
    graph is skipped unparsed; graphs without a staged file are left
    alone.  ``fresh`` discards the store first."""
    if not config.staging_dir.is_dir():
        raise StageError(f"nothing staged under {config.staging_dir}; run transform")
    records_per_graph = {
        g: meta.get("source_records", 0)
        for g, meta in _read_staging_summary(config.staging_dir).items()
    }
    if fresh and config.store_dir.exists():
        shutil.rmtree(config.store_dir)
    store = Store.load(config.store_dir)
    stored = {store.graph_entry(g).filename: g for g in store.graphs()}
    inserted = removed = 0
    for path in sorted(config.staging_dir.glob("*.nq")):
        graph = stored.get(path.name)
        data = path.read_bytes()
        digest = None if graph is None else store.graph_entry(graph).sha256
        if digest is not None and hashlib.sha256(data).hexdigest() == digest:
            continue
        try:
            quads = read_nquads(data)
            if quads:
                graph = quads[0].graph
                if graph is None:
                    raise ValueError("store quads must carry a named graph")
            elif graph is None:
                continue  # an empty file for a graph never stored
            added, dropped = store.replace_graph(
                graph, quads, source_records=records_per_graph.get(graph.value, 0)
            )
        except ValueError as exc:
            raise StageError(f"bad staged file {path.name}: {exc}") from exc
        inserted += added
        removed += dropped
    store.persist(config.store_dir)
    return LoadResult(
        inserted=inserted,
        removed=removed,
        total=len(store),
        graphs=len(store.graphs()),
        store=store,
    )


@dataclass(frozen=True, slots=True)
class ValidateResult:
    report: ValidationReport
    violations: int
    warnings: int
    report_path: Path


def stage_validate(
    config: PipelineConfig, *, store: Store | None = None
) -> ValidateResult:
    """Validate the union graph of the store; writes the report file.

    ``store`` is the store as loaded earlier in the same run; without it
    the persisted store is read from disk."""
    if store is None:
        store = Store.load(config.store_dir)
    shapes, patterns = load_shape_files(config)
    report = validate(store.triples(), shapes, patterns)
    violations = sum(1 for f in report.findings if f.severity == "violation")
    warnings = sum(1 for f in report.findings if f.severity == "warning")
    config.store_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(config.report_path, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return ValidateResult(
        report=report,
        violations=violations,
        warnings=warnings,
        report_path=config.report_path,
    )


def stage_stats(config: PipelineConfig, *, store: Store | None = None):
    """Statistics of ``store``, or of the persisted store without it."""
    if store is None:
        if not (config.store_dir / MANIFEST_NAME).exists():
            raise StageError(f"no store at {config.store_dir}; run load first")
        store = Store.load(config.store_dir)
    return store.stats()


# ---------------------------------------------------------------------------
# The end-to-end run
# ---------------------------------------------------------------------------


def run_pipeline(config: PipelineConfig, *, fresh: bool = False) -> dict:
    """Harvest, transform, load, validate, stats, in that order.

    The store is parsed from disk once, by load, and handed on in memory
    to validate and stats.

    Returns the machine-readable run summary.  Aborts at the first
    failing stage: the summary still reports completed stages, carries
    ``ok: false``, and names the failed stage.
    """
    summary: dict[str, Any] = {"ok": True, "stages": {}}

    def timed(name, fn):
        started = time.perf_counter()
        result = fn()
        summary["stages"][name] = {
            "seconds": round(time.perf_counter() - started, 3)
        }
        return result

    try:
        harvest = timed("harvest", lambda: stage_harvest(config))
        summary["stages"]["harvest"].update(
            records=harvest.records, **dataclasses.asdict(harvest.stats)
        )
        transform = timed("transform", lambda: stage_transform(config))
        summary["stages"]["transform"].update(
            records=transform.records,
            skipped=transform.skipped,
            quads=transform.quads,
            graphs=transform.graphs,
            per_rule=transform.per_rule,
        )
        load = timed("load", lambda: stage_load(config, fresh=fresh))
        summary["stages"]["load"].update(
            inserted=load.inserted,
            removed=load.removed,
            total=load.total,
            graphs=load.graphs,
        )
        validated = timed(
            "validate", lambda: stage_validate(config, store=load.store)
        )
        summary["stages"]["validate"].update(
            conforms=validated.report.conforms,
            findings=len(validated.report.findings),
            violations=validated.violations,
            warnings=validated.warnings,
            report=str(validated.report_path),
        )
        if validated.violations:
            summary["ok"] = False
            summary["failed_stage"] = "validate"
            return summary
        stats = timed("stats", lambda: stage_stats(config, store=load.store))
        summary["stages"]["stats"].update(stats.to_json_dict())
    except Exception as exc:
        failed = _current_stage(summary)
        summary["ok"] = False
        summary["failed_stage"] = failed
        summary["error"] = str(exc)
        error = StageError(f"stage {failed} failed: {exc}")
        error.summary = summary
        raise error from exc
    return summary


def _current_stage(summary: dict) -> str:
    """The first stage without a recorded timing is the one that failed."""
    order = ("harvest", "transform", "load", "validate", "stats")
    for name in order:
        if name not in summary["stages"]:
            return name
    return order[-1]

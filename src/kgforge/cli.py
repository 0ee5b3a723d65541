"""The ``kgforge`` command line.

Seven subcommands drive the pipeline: ``harvest``, ``transform``,
``load``, ``validate``, ``stats``, ``serve``, and ``run`` (the first
five in order).  One JSON config file describes a deployment; every
scalar in it can be overridden through ``KGFORGE_*`` environment
variables, so a cron entry needs nothing but the config path.

Logs go to standard error, data and summaries to standard output.
Exit codes: 0 success, 1 usage or configuration error, 2 stage failure,
3 validation violations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from typing import Sequence

from .harvest import CacheCorruption, HarvestError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    load_config,
    run_pipeline,
    stage_harvest,
    stage_load,
    stage_stats,
    stage_transform,
    stage_validate,
    store_lock,
)
from .store import CorruptManifest, StoreStats

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE_FAILURE = 2
EXIT_VIOLATIONS = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # stage failures, so remap.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgforge",
        description="Build and serve a knowledge graph from repository records.",
    )
    parser.add_argument(
        "-c",
        "--config",
        default="kgforge.json",
        help="path to the pipeline config file (default: ./kgforge.json)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="debug logging on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("harvest", help="fetch source records into the cache")
    sub.add_parser("transform", help="map cached records to staged N-Quads")
    load = sub.add_parser("load", help="insert staged quads into the store")
    load.add_argument(
        "--fresh", action="store_true", help="discard the existing store first"
    )
    sub.add_parser("validate", help="validate the store and write a report")
    sub.add_parser("stats", help="print store statistics")
    sub.add_parser("serve", help="serve the SPARQL endpoint")
    run = sub.add_parser("run", help="harvest, transform, load, validate, stats")
    run.add_argument(
        "--fresh", action="store_true", help="discard the existing store first"
    )
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_harvest(config: PipelineConfig) -> int:
    result = stage_harvest(config)
    logger.info(
        "harvest: %d yielded, %d cache hits, %d skipped",
        result.records,
        result.stats.cache_hits,
        result.stats.skipped_malformed,
    )
    print(result.records)
    return EXIT_OK


def cmd_transform(config: PipelineConfig) -> int:
    result = stage_transform(config)
    logger.info(
        "transform: %d records -> %d quads in %d graphs (%d skipped)",
        result.records,
        result.quads,
        result.graphs,
        result.skipped,
    )
    for name in sorted(result.per_rule):
        print(f"{name}\t{result.per_rule[name]}")
    return EXIT_OK


def cmd_load(config: PipelineConfig, fresh: bool = False) -> int:
    result = stage_load(config, fresh=fresh)
    logger.info(
        "load: %d inserted, %d removed, store now %d quads in %d graphs",
        result.inserted,
        result.removed,
        result.total,
        result.graphs,
    )
    print(result.inserted)
    return EXIT_OK


def cmd_validate(config: PipelineConfig) -> int:
    result = stage_validate(config)
    logger.info("validation report written to %s", result.report_path)
    print(
        json.dumps(
            {
                "conforms": result.report.conforms,
                "violations": result.violations,
                "warnings": result.warnings,
                "report": str(result.report_path),
            }
        )
    )
    return EXIT_OK if result.violations == 0 else EXIT_VIOLATIONS


def cmd_stats(config: PipelineConfig) -> int:
    stats = stage_stats(config)
    print(json.dumps(stats.to_json_dict(), indent=2))
    print(render_stats_table(stats), file=sys.stderr, end="")
    return EXIT_OK


def cmd_serve(config: PipelineConfig) -> int:
    import signal

    # Only ``serve`` needs http.server; other commands skip its import.
    from .endpoint import EndpointServer

    server = EndpointServer(config.store_dir, config.host, config.port)
    try:
        server.refresh()
        host, port = server.address
        logger.info("serving %s at http://%s:%d/sparql", config.store_dir, host, port)
        # SIGTERM stops the server as Ctrl-C does, so that stop() reaps
        # the workers before the process exits.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            logger.info("shutting down")
    finally:
        server.stop()
    return EXIT_OK


def cmd_run(config: PipelineConfig, fresh: bool = False) -> int:
    try:
        summary = run_pipeline(config, fresh=fresh)
    except StageError as exc:
        summary = getattr(exc, "summary", None)
        if summary is not None:
            print(json.dumps(summary, indent=2))
        logger.error("%s", exc)
        return EXIT_STAGE_FAILURE
    print(json.dumps(summary, indent=2))
    if not summary["ok"]:
        logger.error("aborted at stage %s", summary.get("failed_stage"))
        return EXIT_VIOLATIONS
    return EXIT_OK


def render_stats_table(stats: StoreStats) -> str:
    """A human-readable two-column rendering of StoreStats."""

    def compact(iri) -> str:
        value = iri.value
        for sep in ("#", "/"):
            if sep in value:
                value = value.rsplit(sep, 1)[1] or value
                break
        return value

    width = 44
    lines = [
        f"{'total triples':<{width}}{stats.total_triples:>10}",
        f"{'named graphs':<{width}}{stats.graph_count:>10}",
        "",
        "instances per class",
    ]
    for iri, n in sorted(stats.per_class.items(), key=lambda kv: kv[0].value):
        lines.append(f"  {compact(iri):<{width - 2}}{n:>10}")
    lines.append("")
    lines.append("quads per predicate")
    for iri, n in sorted(stats.per_predicate.items(), key=lambda kv: kv[0].value):
        lines.append(f"  {compact(iri):<{width - 2}}{n:>10}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "harvest": cmd_harvest,
    "transform": cmd_transform,
    "load": cmd_load,
    "validate": cmd_validate,
    "stats": cmd_stats,
    "serve": cmd_serve,
    "run": cmd_run,
}

#: Commands that mutate pipeline artifacts and therefore take the lock.
_LOCKED_COMMANDS = {"harvest", "transform", "load", "validate", "run"}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"kgforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    options = {"fresh": args.fresh} if "fresh" in args else {}
    locked = args.command in _LOCKED_COMMANDS
    try:
        with store_lock(config.store_dir) if locked else contextlib.nullcontext():
            return _COMMANDS[args.command](config, **options)
    except ConfigError as exc:  # a broken rule or shape file
        print(f"kgforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StageError, HarvestError, CacheCorruption) as exc:
        print(f"kgforge: error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    except CorruptManifest as exc:
        print(f"kgforge: error: corrupt store {config.store_dir}: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""kgforge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run it from the root of a kgforge checkout.  Workloads: ``ingest``,
``run``, ``query-mix`` (see ``perfbench/README.md``).  With ``--trace 0``
the program runs as child processes and the result holds the end-to-end
metrics; with ``--trace 1`` the same work runs in process under the
tracer and the result holds the per-layer metrics.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it are a readable table.  Work files go under
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import BenchError, Tally  # noqa: E402

#: End-to-end names in the words of each workload, for the table.
ALIASES = {
    "ingest": {"heavy_p50_ms": "ingest_cold_s", "light_p50_ms": "ingest_incr_s"},
    "run": {"heavy_p50_ms": "run_s", "light_p50_ms": "rerun_s"},
    "query-mix": {
        "light_p50_ms": "lookup_p50_ms", "light_p90_ms": "lookup_p90_ms", "light_per_s": "lookup_rps",
        "heavy_p50_ms": "analytic_p50_ms", "heavy_p90_ms": "analytic_p90_ms", "heavy_per_s": "analytic_rps",
    },
}


def _check_checkout() -> None:
    for needed in ("src/kgforge/cli.py", "scripts/make_fixtures.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing: run the benchmark from the root of a kgforge checkout")


def _table(workload: str, report: dict, tally: Tally) -> list[str]:
    aliases = ALIASES[workload]
    lines = []
    for name, (value, unit) in report.items():
        alias = aliases.get(name)
        if alias and alias.endswith("_s") and unit == "ms":
            lines.append(f"{name:<48} {value:>14.3f} {unit:<6} ({alias} = {value / 1000:.3f} s)")
        else:
            lines.append(f"{name:<48} {value:>14.3f} {unit:<6}" + (f" ({alias})" if alias else ""))
    lines.append(f"{'failed_ratio':<48} {tally.failed / max(tally.attempted, 1):>14.3f} ratio  "
                 f"({tally.failed} of {tally.attempted} operations)")
    for cls, seconds in report.samples.items():
        if len(seconds) < 20:
            lines.append(f"{cls} samples (s): " + " ".join(f"{x:.3f}" for x in seconds))
    return lines + [f"failure: {reason}" for reason in tally.reasons]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured interval")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        _check_checkout()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        tally = Tally()
        ctx = workloads.Context(ROOT, work, args.seed, args.seconds, tally)
        work.mkdir(parents=True)
        entry = args.workload.replace("-", "_") + ("_traced" if args.trace else "")
        report = getattr(workloads, entry)(ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for line in _table(args.workload, report, tally):
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fe-read-mostly --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness check fails prints the problems and no numbers, and exits 1.

``python3 perfbench/run.py --write-manifest`` rewrites ``BENCHMARK.json``
from the workload and metric tables.

The program is imported from ``src/`` next to this directory; without it
the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 20


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import it."""
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: "
              f"{error}", file=sys.stderr)
        raise SystemExit(2) from error
    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        print(f"perfbench: imported repro from {location}, not from "
              f"{source}", file=sys.stderr)
        raise SystemExit(2)


def manifest() -> dict:
    from perfbench.measure import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_manifest and args.workload:
        parser.error("--write-manifest takes no workload")
    _import_program()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0

    from perfbench.measure import end_to_end, per_layer
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.trace:
        result = per_layer(workload, args.seed)
    else:
        result = end_to_end(workload, args.seed, args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"trace {args.trace}  loop {workload.loop}")
    for note in result.notes:
        print(f"  {note}")
    if result.correct:
        print("  correctness: PASS")
        for name, (value, unit) in result.metrics.items():
            print(f"  {name:44s} {value:>16.6f} {unit}")
        for name, (value, unit) in result.unbounded.items():
            print(f"  {name:44s} {value:>16.6f} {unit}  (not bounded)")
    else:
        print("  correctness: FAIL")
        for problem in result.problems:
            print(f"    - {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()}
        if result.correct else {},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

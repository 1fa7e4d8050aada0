"""Gate the benchmark's deterministic work counters against a committed file.

Usage::

    python scripts/check_work_counters.py           # compare, exit 1 on drift
    python scripts/check_work_counters.py --workload fe-read-mostly
                                                    # compare one workload
    python scripts/check_work_counters.py --write   # regenerate the file

Runs ``python3 perfbench/run.py --workload W --seed 3 --seconds 2
--trace 1`` for every workload named in ``BENCHMARK.json`` and compares the
counters in :data:`COUNTERS` with ``scripts/work_counters.json``.  These
counters are simulation facts -- result digest, operations, sim events,
transfers, commits, WAL appends, waves, per-op work counts and the
set-up's capacity scans (``storage.subscriber_count.calls``) -- so they
repeat exactly on any machine; wall-clock metrics are not compared.  Any
difference fails.  ``--workload NAME`` (repeatable) measures and compares
only the named workloads, for a quick local check; ``--write`` always
measures every workload, so the committed file is regenerated whole.  A
change that moves a counter on purpose regenerates the file with
``--write`` and says why.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS_FILE = ROOT / "scripts" / "work_counters.json"
SEED = 3
SECONDS = 2
COUNTERS = (
    "sample.digest",
    "sample.ops",
    "sim.events",
    "net.transfers",
    "storage.commits",
    "storage.wal.appends",
    "core.dispatcher.waves",
    "ldap.dn.constructions",
    "storage.record_size.calls",
    "metrics.calls",
    "storage.subscriber_count.calls",
)


def workloads():
    """Workload names, in the order ``BENCHMARK.json`` declares them."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in manifest["workloads"]]


def measure(workload):
    """Run one traced workload; returns ``{counter: value}``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {run.returncode}:\n"
                         f"{run.stdout}{run.stderr}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def differences(expected, measured):
    """Human-readable lines for every counter that differs or is missing."""
    lines = []
    for workload in sorted(set(expected) | set(measured)):
        want = expected.get(workload, {})
        got = measured.get(workload, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                lines.append(f"{workload} {name}: committed {want.get(name)}"
                             f", measured {got.get(name)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {COUNTERS_FILE.relative_to(ROOT)}")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="compare only this workload (repeatable)")
    args = parser.parse_args(argv)
    names = workloads()
    if args.workload:
        if args.write:
            parser.error("--write regenerates every workload; drop "
                         "--workload")
        unknown = sorted(set(args.workload) - set(names))
        if unknown:
            parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                         f"known: {', '.join(names)}")
        names = [name for name in names if name in args.workload]
    measured = {}
    for workload in names:
        print(f"measuring {workload} (seed {SEED}, traced)", flush=True)
        measured[workload] = measure(workload)
    if args.write:
        COUNTERS_FILE.write_text(json.dumps(measured, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote {COUNTERS_FILE.relative_to(ROOT)}")
        return 0
    committed = json.loads(COUNTERS_FILE.read_text())
    drift = differences({name: committed[name] for name in names
                         if name in committed}, measured)
    for line in drift:
        print(line)
    if drift:
        print(f"{len(drift)} work counter(s) differ from "
              f"{COUNTERS_FILE.relative_to(ROOT)}; if the change is "
              f"intended, rerun with --write and explain it")
        return 1
    print("work counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

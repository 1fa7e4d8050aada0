"""Regenerate EXPERIMENTS.md by running every experiment harness.

Usage::

    python scripts/generate_experiments_md.py > EXPERIMENTS.md
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

This file is generated by ``python scripts/generate_experiments_md.py`` and
records, for every figure and quantitative claim of *CAP Limits in Telecom
Subscriber Database Design* (VLDB 2014), what the paper states and what this
reproduction measures.  The substrate is a deterministic discrete-event
simulation (see ARCHITECTURE.md for the layer map), so absolute latencies and
availabilities are not expected to match an Ericsson blade-cluster testbed;
the comparisons below are about *shape*: who wins, what fails, what grows,
and by roughly what factor.

Every table can be regenerated individually with
``PYTHONPATH=src python -c "from repro.experiments import <module> as e;
print(e.run().to_markdown())"``, and its acceptance bar is checked by
``python -m pytest tests/test_experiment_bars.py -k <module>``.
"""

#: The experiment modules under ``repro.experiments``, in report order.
MODULES = [importlib.import_module(f"repro.experiments.{name}") for name in (
    "e01_capacity", "e02_frash", "e03_partition", "e04_slave_reads",
    "e05_durability", "e06_checkpoint", "e07_scaleout", "e08_placement",
    "e09_multimaster", "e10_location_cost", "e11_availability", "e12_pacelc",
    "e13_backlog", "e14_latency", "e15_batch_throughput",
    "e16_dispatcher_latency", "e17_replication_mux", "e18_session_qos",
    "e19_overload_flood", "e20_search_scaling", "e23_reconciliation",
    "e24_partition_drill",
)]


def main() -> None:
    print(PREAMBLE)
    for module in MODULES:
        result = module.run()
        print(result.to_markdown())
        print()


if __name__ == "__main__":
    main()

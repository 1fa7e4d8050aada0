"""The work-counter gate's comparison (scripts/check_work_counters.py).

The gate itself runs the traced benchmark, which takes minutes; these
tests pin only how committed and measured counters are compared.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "check_work_counters.py"


def load_gate():
    spec = importlib.util.spec_from_file_location("check_work_counters",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = load_gate()
COMMITTED = {"fe-read-mostly": {"sample.digest": 231406716329330,
                                "sim.events": 7.108558558558559}}


def test_identical_counters_pass():
    assert GATE.differences(COMMITTED, json.loads(json.dumps(COMMITTED))) \
        == []


def test_any_changed_counter_is_reported():
    measured = {"fe-read-mostly": {"sample.digest": 231406716329330,
                                   "sim.events": 7.2}}
    assert GATE.differences(COMMITTED, measured) == [
        "fe-read-mostly sim.events: committed 7.108558558558559, "
        "measured 7.2"]


def test_missing_workloads_and_counters_are_reported():
    measured = {"oss-search-campaign": {"sample.digest": 1}}
    lines = GATE.differences(COMMITTED, measured)
    assert len(lines) == 3
    assert "oss-search-campaign sample.digest: committed None, " \
        "measured 1" in lines


def test_committed_file_covers_every_workload_and_counter():
    committed = json.loads(GATE.COUNTERS_FILE.read_text())
    assert sorted(committed) == sorted(GATE.workloads())
    for counters in committed.values():
        assert sorted(counters) == sorted(GATE.COUNTERS)

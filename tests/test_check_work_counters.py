"""The work-counter gate's comparison (scripts/check_work_counters.py).

The gate itself runs the traced benchmark, which takes minutes; these
tests pin only how committed and measured counters are compared.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_named_workload_is_the_only_one_measured_and_compared(monkeypatch):
    committed = json.loads(GATE.COUNTERS_FILE.read_text())
    measured = []

    def measure(workload):
        measured.append(workload)
        return dict(committed[workload])

    monkeypatch.setattr(GATE, "measure", measure)
    assert GATE.main(["--workload", "oss-search-campaign"]) == 0
    assert measured == ["oss-search-campaign"]

    def drifted(workload):
        return dict(committed[workload], **{"sim.events": -1})

    monkeypatch.setattr(GATE, "measure", drifted)
    assert GATE.main(["--workload", "fe-read-mostly"]) == 1


@pytest.mark.parametrize("argv", [
    ["--write", "--workload", "fe-read-mostly"],
    ["--workload", "no-such-workload"],
])
def test_refused_workload_arguments_measure_nothing(argv, monkeypatch):
    monkeypatch.setattr(GATE, "measure", lambda workload: pytest.fail(
        f"measured {workload}"))
    with pytest.raises(SystemExit) as refused:
        GATE.main(argv)
    assert refused.value.code == 2

"""reprolint: per-rule fixture snippets, baseline semantics, CLI gates.

Three layers of coverage:

* **unit** -- each checker runs over fixture snippets written to a scratch
  tree at the rel_path that puts them in (or out of) the rule's scope:
  at least two positive and two negative cases per rule, including the
  aliased-import evasions the old greps missed and f-string metric names.
* **baseline** -- the committed ``.reprolint-baseline`` stays sorted and
  deduplicated, and ``--baseline`` suppresses *exactly* the baselined
  findings (one of two seeded violations baselined -> one failure left).
* **acceptance** -- the CLI exits 0 on the committed tree and exits
  non-zero when any one of five seeded violations (one per checker) is
  injected into a scratch copy of ``src/``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    format_baseline,
    load_baseline,
)
from repro.analysis.checkers import (
    ApiBoundaryChecker,
    DeterminismChecker,
    ExceptionHygieneChecker,
    LayeringChecker,
    MetricRegistryChecker,
    default_checkers,
    rule_catalogue,
)
from repro.analysis.checkers.layering import find_cycle, parse_layers_toml
from repro.analysis.engine import baseline_is_normalised, parse_module
from repro.analysis.findings import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
REPROLINT = REPO_ROOT / "scripts" / "reprolint.py"


def module_at(tmp_path, rel_path, source):
    """Write ``source`` at ``rel_path`` under a scratch root and parse it."""
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    module = parse_module(path, tmp_path)
    assert module is not None, "fixture snippet must parse"
    return module


def rules_of(findings):
    return sorted(finding.rule for finding in findings)


# ---------------------------------------------------------------------------
# determinism (DET001/DET002/DET003/DET004)
# ---------------------------------------------------------------------------

class TestDeterminismChecker:
    checker = DeterminismChecker()

    def run(self, tmp_path, source,
            rel_path="src/repro/storage/snippet.py"):
        return list(self.checker.check(
            module_at(tmp_path, rel_path, source)))

    # positives -----------------------------------------------------------

    def test_wall_clock_call(self, tmp_path):
        findings = self.run(tmp_path,
                            "import time\n"
                            "def stamp():\n"
                            "    return time.time()\n")
        assert rules_of(findings) == ["DET001"]

    def test_aliased_wall_clock_import(self, tmp_path):
        findings = self.run(tmp_path,
                            "from time import perf_counter as pc\n"
                            "def stamp():\n"
                            "    return pc()\n")
        assert rules_of(findings) == ["DET001"]
        assert "time.perf_counter" in findings[0].message

    def test_datetime_now_and_urandom(self, tmp_path):
        findings = self.run(tmp_path,
                            "from datetime import datetime\n"
                            "import os\n"
                            "def stamp():\n"
                            "    return datetime.now(), os.urandom(8)\n")
        assert rules_of(findings) == ["DET001", "DET001"]

    def test_module_level_random(self, tmp_path):
        findings = self.run(tmp_path,
                            "import random\n"
                            "def draw():\n"
                            "    return random.random()\n")
        assert rules_of(findings) == ["DET002"]

    def test_aliased_random_and_unseeded_instance(self, tmp_path):
        findings = self.run(tmp_path,
                            "from random import shuffle as mix\n"
                            "import random\n"
                            "def draw(items):\n"
                            "    mix(items)\n"
                            "    return random.Random()\n")
        assert rules_of(findings) == ["DET002", "DET002"]

    def test_transfer_without_stream_in_replication(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def ship(self, a, b):\n"
            "    yield from self.network.transfer(a, b, payload_bytes=64)\n",
            rel_path="src/repro/replication/snippet.py")
        assert rules_of(findings) == ["DET003"]

    def test_yielded_timeout_should_hold(self, tmp_path):
        findings = self.run(tmp_path,
                            "def wait(self):\n"
                            "    yield self.sim.timeout(1.0)\n"
                            "    value = yield sim.timeout(2.0)\n")
        assert rules_of(findings) == ["DET004", "DET004"]

    def test_transfer_without_stream_in_cdc(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def ship(network, a, b):\n"
            "    yield from network.transfer(a, b)\n",
            rel_path="src/repro/cdc/snippet.py")
        assert rules_of(findings) == ["DET003"]

    # negatives -----------------------------------------------------------

    def test_seeded_random_instance_is_clean(self, tmp_path):
        findings = self.run(tmp_path,
                            "import random\n"
                            "def build(seed):\n"
                            "    return random.Random(seed)\n")
        assert findings == []

    def test_instance_draws_are_clean(self, tmp_path):
        findings = self.run(tmp_path,
                            "def draw(rng):\n"
                            "    return rng.random() + rng.gauss(0, 1)\n")
        assert findings == []

    def test_sim_clock_is_clean(self, tmp_path):
        findings = self.run(tmp_path,
                            "def wait(sim):\n"
                            "    yield from sim.hold(1.0)\n"
                            "    return sim.now\n")
        assert findings == []

    def test_composed_or_cancellable_timeout_is_clean(self, tmp_path):
        findings = self.run(tmp_path,
                            "def race(self, wake):\n"
                            "    self.deadline = self.sim.timeout(2.0)\n"
                            "    yield self.sim.any_of([self.deadline, "
                            "wake])\n"
                            "    self.deadline.cancel()\n")
        assert findings == []

    def test_yielded_timeout_outside_the_package_is_clean(self, tmp_path):
        findings = self.run(tmp_path,
                            "def wait(sim):\n"
                            "    yield sim.timeout(1.0)\n",
                            rel_path="tests/snippet.py")
        assert findings == []

    def test_transfer_with_stream_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def ship(self, a, b):\n"
            "    yield from self.network.transfer(\n"
            "        a, b, payload_bytes=64, stream='replication')\n",
            rel_path="src/repro/replication/snippet.py")
        assert findings == []

    def test_transfer_outside_replication_needs_no_stream(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def hop(self, a, b):\n"
            "    yield from self.network.transfer(a, b)\n",
            rel_path="src/repro/core/snippet.py")
        assert findings == []


# ---------------------------------------------------------------------------
# layering (LAY000/LAY001/LAY002)
# ---------------------------------------------------------------------------

LAYERS_TOML = """\
[layers]
sim = []
storage = ["sim"]
core = ["storage", "sim"]
api = ["core", "sim"]

[exceptions]
"repro.core.udr" = ["repro.api"]
"""


class TestLayeringChecker:

    def checker(self, tmp_path):
        layers = tmp_path / "layers.toml"
        layers.write_text(LAYERS_TOML, encoding="utf-8")
        return LayeringChecker(layers_file=layers)

    def run(self, tmp_path, source, rel_path):
        return list(self.checker(tmp_path).check(
            module_at(tmp_path, rel_path, source)))

    # positives -----------------------------------------------------------

    def test_upward_import_flagged(self, tmp_path):
        findings = self.run(tmp_path, "from repro.api import session\n",
                            "src/repro/storage/snippet.py")
        assert rules_of(findings) == ["LAY001"]

    def test_aliased_import_evasion_flagged(self, tmp_path):
        # The two spellings the old grep could not see.
        findings = self.run(
            tmp_path,
            "import repro.api as facade\n"
            "from repro.api.session import Session as S\n",
            "src/repro/storage/snippet.py")
        assert rules_of(findings) == ["LAY001", "LAY001"]

    def test_lazy_function_local_import_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def later():\n"
            "    from repro.api import session\n"
            "    return session\n",
            "src/repro/storage/snippet.py")
        assert rules_of(findings) == ["LAY001"]

    def test_undeclared_package_flagged(self, tmp_path):
        findings = self.run(tmp_path, "from repro.storage import wal\n",
                            "src/repro/mystery/snippet.py")
        assert rules_of(findings) == ["LAY002"]

    def test_cyclic_declaration_reported(self, tmp_path):
        layers = tmp_path / "layers.toml"
        layers.write_text("[layers]\n"
                          'storage = ["core"]\n'
                          'core = ["storage"]\n', encoding="utf-8")
        checker = LayeringChecker(layers_file=layers)
        module = module_at(tmp_path, "src/repro/storage/snippet.py",
                           "import os\n")
        findings = list(checker.check(module))
        assert "LAY000" in rules_of(findings)

    # negatives -----------------------------------------------------------

    def test_downward_import_allowed(self, tmp_path):
        findings = self.run(tmp_path,
                            "from repro.storage import wal\n"
                            "from repro.sim import units\n",
                            "src/repro/core/snippet.py")
        assert findings == []

    def test_same_package_and_stdlib_allowed(self, tmp_path):
        findings = self.run(tmp_path,
                            "import os\n"
                            "from repro.storage.errors import "
                            "StorageError\n",
                            "src/repro/storage/snippet.py")
        assert findings == []

    def test_type_checking_import_exempt(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.api.session import Session\n",
            "src/repro/storage/snippet.py")
        assert findings == []

    def test_exception_grant_allows_the_facade_edge(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def attach():\n"
            "    from repro.api.session import UDRClient\n"
            "    return UDRClient\n",
            "src/repro/core/udr.py")
        assert findings == []

    def test_relative_imports_resolve(self, tmp_path):
        findings = self.run(tmp_path,
                            "from .errors import StorageError\n"
                            "from ..sim import units\n",
                            "src/repro/storage/snippet.py")
        assert findings == []

    # shipped config ------------------------------------------------------

    def test_shipped_layer_map_is_a_dag(self):
        checker = LayeringChecker()
        assert checker.config_findings == []
        assert find_cycle(checker.layers) is None
        assert checker.layers["sim"] == []
        assert "api" not in checker.layers["storage"]
        assert "core" not in checker.layers["replication"]

    def test_toml_subset_parser_multiline_lists(self):
        layers, exceptions = parse_layers_toml(
            '# comment\n'
            '[layers]\n'
            'alpha = []\n'
            'beta = [\n'
            '    "alpha",  # trailing comment\n'
            ']\n'
            '[exceptions]\n'
            '"repro.beta.mod" = ["repro.alpha"]\n')
        assert layers == {"alpha": [], "beta": ["alpha"]}
        assert exceptions == {"repro.beta.mod": ["repro.alpha"]}


# ---------------------------------------------------------------------------
# metric registry (MET001/MET002)
# ---------------------------------------------------------------------------

REGISTRY = """\
# test registry
replication.mux.wakeups
api.client.*.latency
faults.corruption.*
"""


class TestMetricRegistryChecker:

    def checker(self, tmp_path):
        registry = tmp_path / "metric_registry.txt"
        registry.write_text(REGISTRY, encoding="utf-8")
        return MetricRegistryChecker(registry_file=registry)

    def run(self, tmp_path, source):
        return list(self.checker(tmp_path).check(
            module_at(tmp_path, "src/repro/core/snippet.py", source)))

    # positives -----------------------------------------------------------

    def test_typo_in_literal_name(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def wake(metrics):\n"
            "    metrics.increment('replication.mux.wakeup')\n")
        assert rules_of(findings) == ["MET001"]

    def test_unknown_gauge_name(self, tmp_path):
        findings = self.run(tmp_path,
                            "def record(metrics):\n"
                            "    metrics.set_gauge('nope.depth', 3)\n")
        assert rules_of(findings) == ["MET001"]

    def test_fstring_with_typoed_skeleton(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def record(metrics, name):\n"
            "    metrics.latency(f'api.client.{name}.latencies')\n")
        assert rules_of(findings) == ["MET002"]

    def test_fstring_with_unknown_prefix(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def record(metrics, kind):\n"
            "    metrics.increment(f'fault.corruption.{kind}')\n")
        assert rules_of(findings) == ["MET002"]

    # negatives -----------------------------------------------------------

    def test_registered_literal_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def wake(metrics):\n"
            "    metrics.increment('replication.mux.wakeups')\n")
        assert findings == []

    def test_fstring_matching_pattern_is_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def record(metrics, name, kind):\n"
            "    metrics.latency(f'api.client.{name}.latency')\n"
            "    metrics.increment(f'faults.corruption.{kind}')\n")
        assert findings == []

    def test_variable_names_are_wrapper_plumbing(self, tmp_path):
        findings = self.run(tmp_path,
                            "def count(metrics, name):\n"
                            "    metrics.increment(name)\n")
        assert findings == []

    def test_non_emission_reads_unconstrained(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def read(metrics):\n"
            "    return metrics.counter('anything.goes'), "
            "metrics.counters_with_prefix('what.')\n")
        assert findings == []

    def test_shipped_registry_covers_the_tree(self):
        checker = MetricRegistryChecker()
        engine = LintEngine(REPO_ROOT, checkers=[checker])
        report = engine.run()
        assert report.findings == [], \
            [finding.render() for finding in report.findings]
        assert checker.known("replication.mux.wakeups")
        assert not checker.known("replication.mux.wakeup")


# ---------------------------------------------------------------------------
# API boundary (API001)
# ---------------------------------------------------------------------------

class TestApiBoundaryChecker:
    checker = ApiBoundaryChecker()

    def run(self, tmp_path, source,
            rel_path="src/repro/experiments/snippet.py"):
        return list(self.checker.check(
            module_at(tmp_path, rel_path, source)))

    # positives -----------------------------------------------------------

    def test_raw_request_construction(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.ldap.operations import SearchRequest\n"
            "def probe():\n"
            "    return SearchRequest(base_dn='x')\n")
        assert rules_of(findings) == ["API001"]

    def test_aliased_raw_request_evasion(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.ldap.operations import ModifyRequest as MR\n"
            "def probe():\n"
            "    return MR(dn='x')\n")
        assert rules_of(findings) == ["API001"]

    def test_examples_tree_is_policed_too(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.ldap.operations import DeleteRequest\n"
            "DeleteRequest(dn='x')\n",
            rel_path="examples/snippet.py")
        assert rules_of(findings) == ["API001"]

    # negatives -----------------------------------------------------------

    def test_typed_operations_are_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.api.operations import Read, Write\n"
            "def drive(session, imsi):\n"
            "    yield from session.call(Read(imsi))\n"
            "    yield from session.call(Write(imsi, {'a': 1}))\n")
        assert findings == []

    def test_core_layer_access_is_explicit_and_legal(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def drive(udr, request, deadline):\n"
            "    yield from udr.pipeline.execute(request)\n"
            "    udr.dispatcher.submit(request, deadline=deadline)\n")
        assert findings == []

    def test_api_layer_itself_may_build_requests(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.ldap.operations import SearchRequest\n"
            "def encode():\n"
            "    return SearchRequest(base_dn='x')\n",
            rel_path="src/repro/api/operations.py")
        assert findings == []

    def test_annotations_do_not_match(self, tmp_path):
        findings = self.run(
            tmp_path,
            "from repro.ldap.operations import SearchRequest\n"
            "def handle(request: SearchRequest) -> None:\n"
            "    session = object()\n"
            "    session.call(request)\n")
        assert findings == []


# ---------------------------------------------------------------------------
# exception hygiene (EXC001/EXC002)
# ---------------------------------------------------------------------------

class TestExceptionHygieneChecker:
    checker = ExceptionHygieneChecker()

    def run(self, tmp_path, source):
        return list(self.checker.check(
            module_at(tmp_path, "src/repro/core/snippet.py", source)))

    # positives -----------------------------------------------------------

    def test_bare_except_pass(self, tmp_path):
        findings = self.run(tmp_path,
                            "def swallow(op):\n"
                            "    try:\n"
                            "        op()\n"
                            "    except:\n"
                            "        pass\n")
        assert rules_of(findings) == ["EXC001"]

    def test_except_exception_continue(self, tmp_path):
        findings = self.run(tmp_path,
                            "def drain(ops):\n"
                            "    for op in ops:\n"
                            "        try:\n"
                            "            op()\n"
                            "        except Exception:\n"
                            "            continue\n")
        assert rules_of(findings) == ["EXC001"]

    def test_reraise_without_from(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def translate(op):\n"
            "    try:\n"
            "        op()\n"
            "    except KeyError as error:\n"
            "        raise RuntimeError('lookup failed')\n")
        assert rules_of(findings) == ["EXC002"]

    def test_nested_raise_without_from(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def translate(op, strict):\n"
            "    try:\n"
            "        op()\n"
            "    except ValueError:\n"
            "        if strict:\n"
            "            raise RuntimeError('bad value')\n"
            "        return None\n")
        assert rules_of(findings) == ["EXC002"]

    # negatives -----------------------------------------------------------

    def test_specific_exception_pass_is_legal(self, tmp_path):
        findings = self.run(tmp_path,
                            "def tolerate(op, NetworkError):\n"
                            "    try:\n"
                            "        op()\n"
                            "    except NetworkError:\n"
                            "        pass\n")
        # ``except <SpecificType>: pass`` is a deliberate tolerance window,
        # not a catch-all swallow.
        assert findings == []

    def test_raise_from_and_bare_raise_are_legal(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def translate(op):\n"
            "    try:\n"
            "        op()\n"
            "    except KeyError as error:\n"
            "        raise RuntimeError('lookup failed') from error\n"
            "    except ValueError:\n"
            "        raise\n")
        assert findings == []

    def test_explicit_from_none_is_legal(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def translate(op):\n"
            "    try:\n"
            "        op()\n"
            "    except KeyError:\n"
            "        raise RuntimeError('lookup failed') from None\n")
        assert findings == []

    def test_handler_that_records_then_returns_is_legal(self, tmp_path):
        findings = self.run(tmp_path,
                            "def tolerate(op, log):\n"
                            "    try:\n"
                            "        op()\n"
                            "    except Exception as error:\n"
                            "        log.append(error)\n")
        assert findings == []

    def test_function_defined_in_handler_not_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            "def build(op):\n"
            "    try:\n"
            "        op()\n"
            "    except KeyError:\n"
            "        def fail():\n"
            "            raise RuntimeError('later, elsewhere')\n"
            "        return fail\n")
        assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:

    def test_same_line_and_next_line_forms(self):
        found = parse_suppressions("p.py", [
            "x = clock()  # reprolint: disable=DET001 -- measured on purpose",
            "# reprolint: disable=LAY001,MET001 -- spanning form",
            "import repro.api",
        ])
        assert [(s.line, s.applies_to) for s in found] == [(1, 1), (2, 3)]
        assert found[0].justified and found[0].rules == ("DET001",)
        assert found[1].rules == ("LAY001", "MET001")

    def test_unjustified_suppression_detected(self):
        found = parse_suppressions("p.py",
                                   ["x = 1  # reprolint: disable=DET001"])
        assert not found[0].justified

    def test_suppressed_findings_counted_not_failed(self, tmp_path):
        module_at(tmp_path, "src/repro/storage/snippet.py",
                  "import time\n"
                  "# reprolint: disable=DET001 -- fixture\n"
                  "t = time.time()\n")
        engine = LintEngine(tmp_path, checkers=[DeterminismChecker()])
        report = engine.run()
        assert report.findings == []
        assert rules_of(report.suppressed) == ["DET001"]
        assert len(report.suppressions) == 1

    def test_every_committed_suppression_is_justified(self):
        """Acceptance: zero unjustified suppressions under src/repro/."""
        engine = LintEngine(REPO_ROOT)
        report = engine.run()
        unjustified = [s for s in report.unjustified_suppressions()
                       if s.path.startswith("src/repro/")]
        assert unjustified == [], \
            [s.render() for s in unjustified]


# ---------------------------------------------------------------------------
# baseline semantics
# ---------------------------------------------------------------------------

class TestBaseline:

    def seeded_engine(self, tmp_path):
        module_at(tmp_path, "src/repro/storage/one.py",
                  "import time\nt = time.time()\n")
        module_at(tmp_path, "src/repro/storage/two.py",
                  "import time\nt = time.sleep(1)\n")
        return LintEngine(tmp_path, checkers=[DeterminismChecker()])

    def test_baseline_suppresses_exactly_its_findings(self, tmp_path):
        engine = self.seeded_engine(tmp_path)
        full = engine.run()
        assert len(full.findings) == 2
        first, second = full.findings
        baseline = {first.baseline_key()}
        partial = engine.run(baseline=baseline)
        assert [f.baseline_key() for f in partial.baselined] == \
            [first.baseline_key()]
        assert [f.baseline_key() for f in partial.findings] == \
            [second.baseline_key()]

    def test_format_baseline_is_sorted_and_deduped(self, tmp_path):
        engine = self.seeded_engine(tmp_path)
        report = engine.run()
        text = format_baseline(report.findings + report.findings)
        assert baseline_is_normalised(text)
        entries = [line for line in text.splitlines()
                   if line and not line.startswith("#")]
        assert entries == sorted(set(entries)) and len(entries) == 2

    def test_roundtrip_through_file(self, tmp_path):
        engine = self.seeded_engine(tmp_path)
        report = engine.run()
        target = tmp_path / "baseline"
        target.write_text(format_baseline(report.findings),
                          encoding="utf-8")
        assert engine.run(baseline=load_baseline(target)).findings == []

    def test_committed_baseline_is_normalised_and_preexisting_only(self):
        committed = REPO_ROOT / ".reprolint-baseline"
        text = committed.read_text(encoding="utf-8")
        assert baseline_is_normalised(text)
        # Every baselined key must still correspond to a real finding --
        # a stale entry means the violation was fixed and the baseline
        # must shrink (the burn-down direction only).
        engine = LintEngine(REPO_ROOT)
        report = engine.run(baseline=load_baseline(committed))
        live_keys = {f.baseline_key()
                     for f in report.findings + report.baselined}
        assert load_baseline(committed) <= live_keys


# ---------------------------------------------------------------------------
# the CLI and the five seeded violations (acceptance criteria)
# ---------------------------------------------------------------------------

SEEDED_VIOLATIONS = {
    "DET001": ("src/repro/storage/wal.py",
               "\n\ndef _seeded_violation():\n"
               "    import time\n"
               "    return time.time()\n"),
    "LAY001": ("src/repro/storage/wal.py",
               "\n\ndef _seeded_violation():\n"
               "    from repro.api import session as _s\n"
               "    return _s\n"),
    "MET001": ("src/repro/replication/mux.py",
               "\n\ndef _seeded_violation(metrics):\n"
               "    metrics.increment('replication.mux.wakeup')\n"),
    "API001": ("src/repro/experiments/common.py",
               "\n\nfrom repro.ldap.operations import "
               "SearchRequest as _SR\n"
               "def _seeded_violation():\n"
               "    return _SR(base_dn='x')\n"),
    "EXC001": ("src/repro/core/pipeline.py",
               "\n\ndef _seeded_violation(op):\n"
               "    try:\n"
               "        op()\n"
               "    except Exception:\n"
               "        pass\n"),
}


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(REPROLINT), *args],
        capture_output=True, text=True, cwd=str(cwd))


@pytest.fixture(scope="module")
def scratch_src(tmp_path_factory):
    """A scratch copy of src/ (module-scoped: copied once, ~180 files)."""
    scratch = tmp_path_factory.mktemp("scratch-tree")
    shutil.copytree(REPO_ROOT / "src", scratch / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return scratch


class TestCliAcceptance:

    def test_exits_zero_on_the_committed_tree(self):
        result = run_cli("--baseline")
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize("rule", sorted(SEEDED_VIOLATIONS))
    def test_seeded_violation_fails_the_run(self, scratch_src, rule):
        rel_path, payload = SEEDED_VIOLATIONS[rule]
        target = scratch_src / rel_path
        original = target.read_text(encoding="utf-8")
        try:
            target.write_text(original + payload, encoding="utf-8")
            result = run_cli("--root", str(scratch_src))
            assert result.returncode == 1, result.stdout + result.stderr
            assert rule in result.stdout
        finally:
            target.write_text(original, encoding="utf-8")

    def test_scratch_copy_itself_is_clean(self, scratch_src):
        result = run_cli("--root", str(scratch_src))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_unjustified_suppression_in_repro_fails(self, tmp_path):
        module_at(tmp_path, "src/repro/storage/snippet.py",
                  "import time\n"
                  "t = time.time()  # reprolint: disable=DET001\n")
        result = run_cli("--root", str(tmp_path))
        assert result.returncode == 1
        assert "justification" in result.stderr

    def test_list_rules_covers_all_five_checkers(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule in ("DET001", "DET002", "DET003", "LAY001", "MET001",
                     "API001", "EXC001", "EXC002"):
            assert rule in result.stdout
        assert set(rule_catalogue()) >= {
            "DET001", "LAY001", "MET001", "API001", "EXC001"}

    def test_write_baseline_roundtrip(self, tmp_path):
        module_at(tmp_path, "src/repro/storage/snippet.py",
                  "import time\nt = time.time()\n")
        assert run_cli("--root", str(tmp_path)).returncode == 1
        written = run_cli("--root", str(tmp_path), "--write-baseline")
        assert written.returncode == 0
        assert (tmp_path / ".reprolint-baseline").exists()
        result = run_cli("--root", str(tmp_path), "--baseline")
        assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

class TestEngine:

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        path = tmp_path / "src" / "repro" / "storage" / "broken.py"
        path.parent.mkdir(parents=True)
        path.write_text("def broken(:\n", encoding="utf-8")
        report = LintEngine(tmp_path, checkers=[]).run()
        assert rules_of(report.findings) == ["ENG001"]

    def test_findings_sorted_by_path_line_rule(self, tmp_path):
        module_at(tmp_path, "src/repro/storage/b.py",
                  "import time\nt = time.time()\n")
        module_at(tmp_path, "src/repro/storage/a.py",
                  "import time\nt = time.sleep(0)\n")
        report = LintEngine(
            tmp_path, checkers=[DeterminismChecker()]).run()
        assert [f.path for f in report.findings] == \
            ["src/repro/storage/a.py", "src/repro/storage/b.py"]

    def test_default_checkers_all_load(self):
        assert len(default_checkers()) == 5

    def test_full_tree_run_is_clean(self):
        """The committed tree passes every checker with no baseline."""
        report = LintEngine(REPO_ROOT).run()
        assert report.findings == [], \
            [finding.render() for finding in report.findings]

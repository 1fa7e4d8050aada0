"""Determinism: no wall clocks, no unseeded randomness, no stream sharing.

Bit-identical replays are the foundation every equivalence harness in this
repo stands on (batch==sequential, armor-off==raw, ...).
They hold only if simulation code draws *all* nondeterminism from two
places: the simulated clock (``sim.engine``) and the named seeded streams
of ``sim/rng.py``.  Three rules police that:

``DET001``
    Wall-clock and real-sleep calls (``time.time``, ``time.perf_counter``,
    ``time.monotonic``, ``time.sleep``, ``datetime.now`` and friends,
    ``os.urandom``, ``uuid.uuid1``/``uuid4``, any ``secrets.*``) anywhere
    under the linted roots.  Benchmark timing that *deliberately* measures
    wall clock carries a justified inline suppression.

``DET002``
    Unseeded module-level randomness: any ``random.*`` call except
    ``random.Random(seed)`` construction with an explicit seed.  Seeded
    instances (and the ``sim/rng.py`` streams built from them) are the
    only sanctioned source; the module-level global stream is shared
    mutable state whose draw order depends on import order.

``DET003``
    ``Network.transfer(...)`` calls inside ``repro.replication`` /
    ``repro.cdc`` that omit the dedicated ``stream=`` kwarg.  Replication
    and CDC traffic must draw latency/loss samples from their own named
    stream: sharing the network-wide pair means a shipping-mode change
    perturbs *operation-path* RNG draws and every seeded experiment
    shifts.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding

#: Fully qualified call targets that read wall clock / real entropy.
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.sleep",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
}

#: Whole modules whose every call is wall-entropy.
ENTROPY_MODULES = ("secrets",)

#: Packages whose ``Network.transfer`` calls must name a stream.
STREAM_REQUIRED_PACKAGES = {"replication", "cdc"}


class DeterminismChecker(Checker):

    RULES = {
        "DET001": "wall-clock or real-entropy call (time/datetime/"
                  "os.urandom/uuid/secrets) -- use the sim clock",
        "DET002": "unseeded module-level random.* call -- draw from a "
                  "named sim/rng.py stream",
        "DET003": "Network.transfer in a replication/CDC path without the "
                  "dedicated stream= kwarg",
    }

    def check(self, module) -> Iterable[Finding]:
        findings: List[Finding] = []
        stream_scope = module.package in STREAM_REQUIRED_PACKAGES
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.imports.resolve_call_target(node.func)
            if target:
                findings.extend(self._check_target(module, node, target))
            if stream_scope:
                findings.extend(self._check_transfer(module, node))
        return findings

    def _check_target(self, module, node: ast.Call,
                      target: str) -> Iterable[Finding]:
        if target in WALL_CLOCK_CALLS or \
                target.split(".")[0] in ENTROPY_MODULES:
            yield Finding(
                rule="DET001", path=module.rel_path, line=node.lineno,
                message=f"call to {target} reads wall clock or real "
                        f"entropy",
                hint="use the sim clock (sim.now / sim.timeout) or a "
                     "seeded sim/rng.py stream")
        elif target.startswith("random."):
            yield from self._check_random(module, node, target)

    def _check_random(self, module, node: ast.Call,
                      target: str) -> Iterable[Finding]:
        attr = target[len("random."):]
        if attr == "Random":
            if node.args or node.keywords:
                return  # seeded instance construction: the sanctioned way
            yield Finding(
                rule="DET002", path=module.rel_path, line=node.lineno,
                message="random.Random() without a seed is entropy-seeded",
                hint="pass derive_seed(root_seed, stream) from sim/rng.py")
            return
        if "." in attr:
            return  # method on some random.X object we cannot resolve
        yield Finding(
            rule="DET002", path=module.rel_path, line=node.lineno,
            message=f"module-level random.{attr} draws from the shared "
                    f"unseeded global stream",
            hint="draw from a named RandomStreams stream "
                 "(sim/rng.py) instead")

    def _check_transfer(self, module, node: ast.Call) -> Iterable[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "transfer"):
            return
        has_stream = any(keyword.arg == "stream" or keyword.arg is None
                         for keyword in node.keywords)
        if has_stream:
            return
        yield Finding(
            rule="DET003", path=module.rel_path, line=node.lineno,
            message="Network.transfer on a replication/CDC path without "
                    "stream= shares the operation-path RNG pair",
            hint='pass stream="replication" (or a dedicated stream name) '
                 'so shipping changes cannot perturb operation draws')

"""Experiment harnesses: one module per figure / quantitative claim.

Every experiment builds the system it needs, runs it, and returns an
:class:`~repro.experiments.runner.ExperimentResult` whose rows are the table
the paper (or its prose) implies.  ``tests/test_experiment_bars.py`` runs
each experiment and asserts its acceptance notes; ``EXPERIMENTS.md`` records
the paper-vs-measured comparison.

Index (EXPERIMENTS.md, regenerated by ``scripts/generate_experiments_md.py``
and kept fresh by CI, records every table with the paper-vs-measured
comparison):

========  ==========================================================
E01       Section 3.5 capacity figures
E02       Figures 5/6 FRASH trade-off graph and operating points
E03       Partition behaviour: FE vs PS availability under PC
E04       Read-from-slave latency vs staleness
E05       Durability: async vs dual-in-sequence vs quorum
E06       Checkpoint period sweep (F-R trade-off)
E07       Scale-out: provisioned vs cached vs hashed location
E08       Selective placement vs random sharding (H-R link)
E09       Multi-master divergence and consistency restoration
E10       Data-location lookup cost: O(log N) maps vs hashing
E11       Availability model vs the five-nines budget
E12       PACELC classification
E13       Provisioning backlog and the 30-second batch glitch
E14       Response-time budget vs the 10 ms target
E15       Batched pipelining throughput vs admission-wave size
E16       Arrival-driven dispatch: linger budget vs arrival rate
E17       Replication multiplexing: site-pair shipping + adaptive linger
E18       Session QoS: deadlines + priority under a provisioning flood
E19       Overload armor: quotas + deadlines + shed vs an unbounded flood
E20       Tree-accelerated search: DIT interval index vs full scan
E23       Online reconciliation vs silent corruption under live traffic
E24       Partition drill: lease detection, quorum promotion, fencing
========  ==========================================================
"""

from repro.experiments.runner import ExperimentResult

__all__ = ["ExperimentResult"]

"""Fleet-scale scenario sweeps: out-of-core execution, sharded results.

Symbolic scenarios (PR 5) made a million scenarios a few kilobytes to
*describe* and the supervised engine (PRs 2/7) made each one cheap to
*run*; this package removes the last scale wall — results.  Instead of one
in-memory list of traces, a sweep flows through three layers:

* :mod:`repro.sweep.spaces` — lazy **scenario spaces**
  (:class:`GridSpace` cartesian grids, :class:`RandomSpace` seeded
  samplers, :class:`ChainSpace` concatenation) that build any scenario
  from its integer index on demand, never holding the space in memory;
* :mod:`repro.sweep.executor` — :func:`run_sweep` slices a space into
  bounded partitions, drives each through ``simulate_batch`` (backend
  prepared once, full PR 7 supervision, streaming sinks only) and flushes
  per-partition **JSONL table shards** plus an atomically-committed manifest:
  peak memory is flat in the scenario count (the E20 gate), and an
  interrupted sweep resumes from the manifest with crash debris
  quarantined;
* :mod:`repro.sweep.store` — :class:`SweepResultStore` queries the shards
  out-of-core (shards stream line by line, predicates and column
  projection applied per row) and serves the sweep-level merged
  statistics straight from the manifest.

The package is pure stdlib.  The CLI front end is ``repro sweep`` (run /
query / info).
"""

from .executor import ProgressCallback, SweepResult, run_sweep
from .shards import SHARD_FORMAT, ShardWriter
from .spaces import (
    ChainSpace,
    GridSpace,
    RandomSpace,
    ScenarioSpace,
    StimulusBuilder,
    stimulus_space,
)
from .store import SweepResultStore

__all__ = [
    "ChainSpace",
    "GridSpace",
    "ProgressCallback",
    "RandomSpace",
    "SHARD_FORMAT",
    "ScenarioSpace",
    "ShardWriter",
    "StimulusBuilder",
    "SweepResult",
    "SweepResultStore",
    "run_sweep",
    "stimulus_space",
]

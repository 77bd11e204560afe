"""Persistent warm starts: the fingerprint-keyed on-disk artifact cache.

``repro.store`` makes analyse+compile a **per-model** cost instead of a
per-process cost.  PR 8's in-memory :class:`~repro.serve.cache.PlanCache`
amortises the toolchain across requests *within* one server; this package
amortises it across **processes**: CLI invocations, CI jobs, benchmark
runs and freshly started servers all warm-start from
``~/.cache/repro`` (or ``REPRO_CACHE_DIR``) when the exact model — by
structural fingerprint — was analysed before, by anyone.

Two consumers share the store:

* :func:`~repro.core.toolchain.run_toolchain` checks it before analysing
  (``store=`` option; the CLI enables it by default, ``--no-cache`` opts
  out) and publishes its analysis payload (``toolchain`` kind) and a
  raw-source shortcut (``index`` kind) back on a miss;
* :class:`~repro.serve.service.SimulationService` passes the store through
  to the toolchain, making the in-memory plan cache the front of the disk
  tier (miss → disk → compile, compiled entries published back).

Artifacts are stamped (schema revision + repro version + Python version)
and checked before unpickling; corrupt or stale entries silently miss and
are recomputed — the store can make runs faster, never wrong.  See
:mod:`repro.store.artifacts` for the file format and concurrency protocol,
:mod:`repro.store.toolchain` for the key discipline, and the ``repro
cache`` CLI subcommand for stats/clear/prune maintenance.
"""

from .artifacts import (
    SCHEMA_REV,
    ArtifactStore,
    default_cache_dir,
    default_store,
    resolve_store,
)
from .toolchain import (
    KIND_INDEX,
    KIND_TOOLCHAIN,
    toolchain_fingerprint,
    toolchain_options_key,
    toolchain_raw_key,
)

__all__ = [
    "ArtifactStore",
    "KIND_INDEX",
    "KIND_TOOLCHAIN",
    "SCHEMA_REV",
    "default_cache_dir",
    "default_store",
    "resolve_store",
    "toolchain_fingerprint",
    "toolchain_options_key",
    "toolchain_raw_key",
]

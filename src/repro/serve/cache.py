"""Fingerprint-keyed LRU cache of compiled models for the serving layer.

The whole point of a long-lived server is that compilation is amortised
across traffic: the first submission of a model pays parse → instantiate →
validate → translate → analyse → plan-compile once, and every structurally
equal submission afterwards — from any client — reuses the cached
:class:`~repro.sig.engine.plan.ExecutionPlan` and analysis reports.

Keys are **structural fingerprints**: the submitted AADL source is parsed
and re-rendered through the canonical printer
(:func:`repro.aadl.printer.render_model`), so whitespace, comments and
formatting do not split the cache — two structurally identical models hash
identically however they were typed.  The translation-relevant request
options (root implementation, default package, scheduling policy,
scheduler inclusion, validation strictness) are folded into the hash
because they change the compiled artefact.

A second, *textual* index shortcuts the warm path: byte-identical
resubmissions (`sha256` of the raw source + options) map straight to their
structural fingerprint without even re-parsing — this is what makes the
E18 warm-path latency a hash lookup instead of a parse.

The cache is a **bounded LRU** with single-flight compilation: concurrent
submissions of the same fingerprint block on one compile (exactly one
factory call per fingerprint, asserted by the concurrency fuzz suite), and
inserting past ``capacity`` evicts the least-recently-used entry, whose
next submission transparently recompiles.  Hit/miss/eviction/compile
counters are maintained both cache-wide and per entry, and surfaced over
``GET /models/{fingerprint}``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..store.toolchain import canonical_source, model_fingerprint, source_key

__all__ = [
    "PlanCache",
    "canonical_source",
    "model_fingerprint",
    "source_key",
]


class PlanCache:
    """Bounded LRU of compiled models, keyed by structural fingerprint.

    Thread-safe.  :meth:`get_or_create` is the single entry point of the
    submit path: it guarantees **exactly one** factory call per resident
    fingerprint however many threads submit structurally equal models
    concurrently (single-flight), and touches the LRU order on every hit.
    :meth:`get` is the simulate-path lookup (touches LRU, counts hit/miss);
    :meth:`peek` reads without touching anything (``GET /models/{fp}``).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        #: raw-source sha -> structural fingerprint (warm-path shortcut).
        self._source_index: Dict[str, str] = {}
        #: structural fingerprint -> raw-source shas pointing at it (for
        #: eviction cleanup).
        self._sources_of: Dict[str, List[str]] = {}
        #: fingerprint -> in-flight compilation (single-flight rendezvous).
        self._inflight: Dict[str, "_Flight"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Total factory runs per fingerprint, *across* evictions — the
        #: observable the concurrency fuzz suite pins down: equal to 1 per
        #: resident fingerprint, +1 after each evict-and-resubmit cycle.
        self.compiles: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> List[str]:
        """Resident fingerprints, least recently used first."""
        with self._lock:
            return list(self._entries)

    def resolve_source(self, key: str) -> Optional[str]:
        """The structural fingerprint of a raw-source key, if remembered."""
        with self._lock:
            return self._source_index.get(key)

    def get(self, fingerprint: str) -> Optional[Any]:
        """The entry under *fingerprint*, touching LRU and counters."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            entry.hits += 1
            return entry

    def peek(self, fingerprint: str) -> Optional[Any]:
        """The entry under *fingerprint* without touching LRU or counters."""
        with self._lock:
            return self._entries.get(fingerprint)

    # ------------------------------------------------------------------
    # insertion (single-flight)
    # ------------------------------------------------------------------
    def get_or_create(
        self,
        fingerprint: str,
        factory: Callable[[], Any],
        source_keys: Tuple[str, ...] = (),
    ) -> Tuple[Any, bool]:
        """The entry under *fingerprint*, compiling it at most once.

        Returns ``(entry, created)``.  When several threads race on the
        same absent fingerprint, exactly one runs *factory* and the rest
        block until it finishes (sharing its result — or its exception,
        which every waiter re-raises).  *source_keys* are raw-source hashes
        to register in the textual fast-path index.
        """
        while True:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._entries.move_to_end(fingerprint)
                    self.hits += 1
                    entry.hits += 1
                    self._index_sources(fingerprint, source_keys)
                    return entry, False
                flight = self._inflight.get(fingerprint)
                if flight is None:
                    flight = _Flight()
                    self._inflight[fingerprint] = flight
                    self.misses += 1
                    self.compiles[fingerprint] = self.compiles.get(fingerprint, 0) + 1
                    break
            # Another thread is compiling this fingerprint: wait for it,
            # then loop to pick the entry up (or to take over if it failed).
            flight.done.wait()
            if flight.error is not None:
                raise flight.error

        try:
            entry = factory()
        except BaseException as exc:
            with self._lock:
                # A failed compile leaves no entry (and no stale compile
                # credit): the next submission retries from scratch.
                self.compiles[fingerprint] -= 1
                if not self.compiles[fingerprint]:
                    del self.compiles[fingerprint]
                del self._inflight[fingerprint]
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            self._index_sources(fingerprint, source_keys)
            del self._inflight[fingerprint]
            self._evict_over_capacity()
        flight.done.set()
        return entry, True

    def _index_sources(self, fingerprint: str, source_keys: Tuple[str, ...]) -> None:
        # Caller holds the lock.
        for key in source_keys:
            if self._source_index.get(key) != fingerprint:
                self._source_index[key] = fingerprint
                self._sources_of.setdefault(fingerprint, []).append(key)

    def _evict_over_capacity(self) -> None:
        # Caller holds the lock.
        while len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            self.evictions += 1
            for key in self._sources_of.pop(victim, ()):  # drop stale shortcuts
                self._source_index.pop(key, None)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict(self, fingerprint: str) -> bool:
        """Explicitly drop one entry (``DELETE /models/{fp}``)."""
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is None:
                return False
            self.evictions += 1
            for key in self._sources_of.pop(fingerprint, ()):
                self._source_index.pop(key, None)
            return True

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()
            self._source_index.clear()
            self._sources_of.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cache-wide counters (part of ``GET /stats``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "compiles": sum(self.compiles.values()),
                "inflight": len(self._inflight),
            }


class _Flight:
    """Rendezvous of one in-flight compilation (single-flight)."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: Optional[BaseException] = None

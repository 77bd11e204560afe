"""Deterministic fault injection for the supervised batch executor.

Fault tolerance is only trustworthy when it is *tested* against the faults
it claims to survive, and real crashes are not reproducible test inputs.
This module provides a seeded, picklable description of exactly which
scenario attempts misbehave and how — the harness behind
``tests/sig/test_engine_supervisor.py``, the chaos CI job and the E17
benchmark gate (``benchmarks/test_bench_e17_fault_tolerance.py``):

* a :class:`FaultSpec` names one injected misbehaviour: a hard **crash**
  (``os._exit``, exactly what an OOM kill or a segfaulting user op looks
  like from the parent), a **hang** (an uninterruptible busy wait, like an
  infinite loop in a user operation), an **exception** (an unexpected
  non-simulation error escaping a worker) or a **slowdown** (a straggler,
  which must *not* become a fault — only cost wall-clock);
* a :class:`FaultPlan` is a set of specs addressed by ``(scenario index,
  attempt number)``, so tests can express "scenario 7 crashes on its first
  two attempts and then succeeds" as data;
* :meth:`FaultPlan.seeded` derives a random-but-deterministic plan from an
  integer seed, which is what the hypothesis fuzz suite and the chaos job
  sweep over.

Injection happens at one well-defined point: the start of a scenario
attempt, inside the worker (or inside the in-process supervised loop when
``workers=1``), via :func:`fire_fault`.  In-process execution cannot
survive a real ``os._exit``, so there the crash and hang kinds degrade to
marker exceptions (:class:`InjectedCrash`, a cooperative wait for the
guard's deadline) that the supervisor maps onto the same fault taxonomy —
the degraded mode reports the same :class:`~repro.sig.engine.supervisor.ScenarioFault`
kinds as the pooled one.

The module is import-light (stdlib only) and everything in it pickles, so
plans travel to spawn-based workers unchanged.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

#: The injectable misbehaviours, in the order :meth:`FaultPlan.seeded` draws
#: from.  ``crash`` and ``hang`` surface as ``crash``/``timeout`` faults,
#: ``exception`` as an ``error`` fault, ``slowdown`` must not fault at all.
FAULT_KINDS = ("crash", "hang", "exception", "slowdown")

#: Exit code of an injected crash — distinguishable from a Python traceback
#: exit (1) and reminiscent of SIGABRT's 128+6.
CRASH_EXIT_CODE = 134


def _is_count(value: object) -> bool:
    """``True`` for a non-bool ``int`` >= 0 (a scenario or attempt number)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class FaultInjected(RuntimeError):
    """The injected *exception* fault: an unexpected non-simulation error."""


class InjectedCrash(Exception):
    """In-process stand-in for a worker crash (``os._exit`` would kill the
    test process); the in-process supervisor maps it to a ``crash`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour at chosen ``(scenario, attempt)`` points.

    ``attempts`` lists the attempt numbers (0-based) at which the fault
    fires; ``None`` means *every* attempt — a persistent fault the retry
    ladder cannot recover from.  ``delay`` is the slowdown duration (and
    the polling period of an injected hang).  The constructor refuses a
    negative or non-integer ``scenario``/attempt number and a ``delay``
    that is not a finite number >= 0 with :class:`ValueError`.
    """

    kind: str
    scenario: int
    attempts: Optional[Tuple[int, ...]] = (0,)
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {', '.join(FAULT_KINDS)}"
            )
        if not _is_count(self.scenario):
            raise ValueError(f"scenario must be an integer >= 0, got {self.scenario!r}")
        if self.attempts is not None and not (
            isinstance(self.attempts, tuple) and all(map(_is_count, self.attempts))
        ):
            raise ValueError(
                "attempts must be None (every attempt) or a tuple of integers "
                f">= 0, got {self.attempts!r}"
            )
        if (
            isinstance(self.delay, bool)
            or not isinstance(self.delay, (int, float))
            or not math.isfinite(self.delay)
            or self.delay < 0
        ):
            raise ValueError(f"delay must be a finite number >= 0, got {self.delay!r}")

    def matches(self, scenario: int, attempt: int) -> bool:
        """``True`` when this spec fires for *scenario* at *attempt*."""
        if scenario != self.scenario:
            return False
        return self.attempts is None or attempt in self.attempts

    @property
    def persistent(self) -> bool:
        """``True`` when the fault fires at every attempt (unrecoverable)."""
        return self.attempts is None


#: Fault kind -> the :class:`~repro.sig.engine.supervisor.ScenarioFault.kind`
#: a *persistent* injection of it must surface as (``slowdown`` never faults).
EXPECTED_FAULT_KIND = {"crash": "crash", "hang": "timeout", "exception": "error"}


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultSpec` injections for one batch.

    Plans are immutable, picklable and addressed by ``(scenario, attempt)``
    through :meth:`lookup`; at most one spec fires per attempt (the first
    matching spec wins, in declaration order).
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def lookup(self, scenario: int, attempt: int) -> Optional[FaultSpec]:
        """The spec that fires for *scenario* at *attempt*, or ``None``."""
        for spec in self.specs:
            if spec.matches(scenario, attempt):
                return spec
        return None

    def expected_faults(self) -> Dict[int, str]:
        """``scenario -> fault kind`` for every *persistent* injection.

        These are the scenarios no amount of retrying can save; the E17
        gate asserts each one surfaces as a typed
        :class:`~repro.sig.engine.supervisor.ScenarioFault` of exactly this
        kind (slowdowns are stragglers, not faults, and never appear here).
        """
        expected: Dict[int, str] = {}
        for spec in self.specs:
            if spec.persistent and spec.kind in EXPECTED_FAULT_KIND:
                expected.setdefault(spec.scenario, EXPECTED_FAULT_KIND[spec.kind])
        return expected

    def transient_scenarios(self) -> Tuple[int, ...]:
        """Scenarios with only finite-attempt injections: retries must
        recover them bit-identically."""
        persistent = {spec.scenario for spec in self.specs if spec.persistent}
        return tuple(
            sorted(
                {spec.scenario for spec in self.specs if not spec.persistent}
                - persistent
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        scenario_count: int,
        rate: float = 0.2,
        kinds: Sequence[str] = FAULT_KINDS,
        persistent_rate: float = 0.3,
        max_attempt: int = 2,
        delay: float = 0.01,
    ) -> "FaultPlan":
        """Derive a random-but-deterministic plan from *seed*.

        Each scenario independently misbehaves with probability *rate*; a
        misbehaving scenario draws a kind from *kinds* and is persistent
        (fires at every attempt) with probability *persistent_rate*,
        otherwise it fires on attempts ``0..k`` for a random ``k <
        max_attempt`` and recovers on the next retry.  The same seed always
        yields the same plan, so fuzz failures replay exactly.
        """
        rng = random.Random(seed)
        specs = []
        for scenario in range(scenario_count):
            if rng.random() >= rate:
                continue
            kind = rng.choice(list(kinds))
            if rng.random() < persistent_rate:
                attempts: Optional[Tuple[int, ...]] = None
            else:
                attempts = tuple(range(rng.randint(1, max(1, max_attempt))))
            specs.append(
                FaultSpec(kind=kind, scenario=scenario, attempts=attempts, delay=delay)
            )
        return cls(specs=tuple(specs))


def fire_fault(spec: FaultSpec, in_process: bool = False, guard=None) -> None:
    """Execute *spec* at its injection point (start of a scenario attempt).

    Pooled workers take the real path: ``crash`` is an immediate
    ``os._exit`` (no Python unwinding — exactly what the supervisor's
    sentinel watch must catch), ``hang`` busy-waits forever in small sleeps
    (the supervisor's wall-clock deadline kills the worker), ``exception``
    raises :class:`FaultInjected`, ``slowdown`` sleeps ``spec.delay`` and
    returns.

    With ``in_process=True`` (the ``workers=1`` degraded mode) the process
    must survive: ``crash`` raises :class:`InjectedCrash` and ``hang``
    waits cooperatively on *guard* (the installed
    :class:`~repro.sig.engine.supervisor.ExecutionGuard`) until its
    deadline raises the timeout; an in-process hang with no deadline to
    cancel it degrades to :class:`FaultInjected` so tests cannot wedge.
    """
    if spec.kind == "slowdown":
        time.sleep(spec.delay)
        return
    if spec.kind == "exception":
        raise FaultInjected(
            f"injected exception for scenario {spec.scenario}"
        )
    if spec.kind == "crash":
        if in_process:
            raise InjectedCrash(f"injected crash for scenario {spec.scenario}")
        os._exit(CRASH_EXIT_CODE)
    # hang
    if in_process:
        if guard is None or guard.deadline is None:
            raise FaultInjected(
                f"injected hang for scenario {spec.scenario} "
                "(no timeout installed to cancel it in-process)"
            )
        while True:
            guard.check_time()  # raises ScenarioTimeout at the deadline
            time.sleep(spec.delay)
    while True:  # pooled: wait for the supervisor's kill
        time.sleep(spec.delay)


__all__ = [
    "CRASH_EXIT_CODE",
    "EXPECTED_FAULT_KIND",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "fire_fault",
]

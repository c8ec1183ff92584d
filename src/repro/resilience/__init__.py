"""Fault injection, fallback chains and graceful degradation.

The decode stack in :mod:`repro.core` answers "how well can a sparse
frame be reconstructed?"; this package answers "what happens when the
decode itself misbehaves?" -- a crashing or diverging solver, poisoned
or dropped measurements, a blown latency budget.  Three pieces:

* :mod:`~repro.resilience.chaos` + :mod:`~repro.resilience.array_chaos`
  + :mod:`~repro.resilience.worker_chaos` -- composable fault injectors
  that attach to the solver dispatch seam, the array-layer hook seam
  (stuck gate lines, dropped scan cycles, ADC bit flips, saturation
  bursts, gain drift, stuck pixel rows) and the executor task seam
  (worker crash/hang/slow-start), so any experiment or test can run
  under a reproducible fault mix;
* :mod:`~repro.resilience.policies` -- declarative knobs: solver
  fallback chain, retry bounds, per-solver budgets, circuit breaker;
* :mod:`~repro.resilience.adaptive` -- a feedback controller that
  re-tunes the live policy between frames from health telemetry
  (escalation levels, breaker-aware probe budgets, sticky stuck-line
  sampling exclusions);
* :mod:`~repro.resilience.runtime` + :mod:`~repro.resilience.health` --
  the supervised decode loop that health-validates every frame and
  degrades gracefully (last-good-frame hold) instead of failing.

Quickstart::

    import numpy as np
    from repro.core import DecodeContext
    from repro.resilience import (
        ResilientDecoder, chaos, default_taxonomy,
    )

    decoder = ResilientDecoder()
    plan = DecodeContext.for_frame(frame, sampling_fraction=0.5)
    rng = np.random.default_rng(0)
    with chaos(*default_taxonomy(fault_rate=0.2, seed=0)):
        outcome = decoder.decode(frame, plan, rng)
    assert outcome.frame is not None           # always delivered
    print(outcome.status, outcome.faults_seen)

See ``docs/RESILIENCE.md`` for the full tour.
"""

from .adaptive import AdaptationEvent, AdaptivePolicy
from .array_chaos import (
    AdcBitFlipInjector,
    DroppedCycleInjector,
    GainDriftInjector,
    SaturationBurstInjector,
    StuckLineInjector,
    StuckPixelRowInjector,
    default_array_taxonomy,
)
from .chaos import (
    BudgetExhaustionInjector,
    FaultInjector,
    InjectedFault,
    MeasurementDropoutInjector,
    NanPoisonInjector,
    SolverDivergenceInjector,
    SolverExceptionInjector,
    chaos,
    default_taxonomy,
)
from .health import (
    DEFAULT_RESIDUAL_FACTOR,
    DEFAULT_VALUE_RANGE,
    FrameGuard,
    HealthReport,
    residual_sane,
    validate_reconstruction,
)
from .policies import (
    DEFAULT_FALLBACK_CHAIN,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    SolverBudget,
)
from .worker_chaos import (
    WorkerCrashInjector,
    WorkerHangInjector,
    WorkerSlowStartInjector,
    default_worker_taxonomy,
)
from .runtime import (
    AttemptRecord,
    DecodeOutcome,
    ResilientDecoder,
    ResilientStrategy,
)

__all__ = [
    # chaos
    "InjectedFault",
    "FaultInjector",
    "SolverExceptionInjector",
    "SolverDivergenceInjector",
    "MeasurementDropoutInjector",
    "NanPoisonInjector",
    "BudgetExhaustionInjector",
    "chaos",
    "default_taxonomy",
    # array-layer chaos
    "StuckLineInjector",
    "DroppedCycleInjector",
    "AdcBitFlipInjector",
    "SaturationBurstInjector",
    "GainDriftInjector",
    "StuckPixelRowInjector",
    "default_array_taxonomy",
    # executor-layer chaos
    "WorkerCrashInjector",
    "WorkerHangInjector",
    "WorkerSlowStartInjector",
    "default_worker_taxonomy",
    # adaptive
    "AdaptationEvent",
    "AdaptivePolicy",
    # health
    "HealthReport",
    "validate_reconstruction",
    "residual_sane",
    "FrameGuard",
    "DEFAULT_VALUE_RANGE",
    "DEFAULT_RESIDUAL_FACTOR",
    # policies
    "SolverBudget",
    "RetryPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
    "DEFAULT_FALLBACK_CHAIN",
    # runtime
    "AttemptRecord",
    "DecodeOutcome",
    "ResilientDecoder",
    "ResilientStrategy",
]

"""DecodeOutcome / policy snapshots must always survive json.dumps.

Solver info dicts leak numpy scalars (iteration counts, residuals) and
adaptive tuning can plant numpy ints in budgets; the structured-outcome
serialisers coerce everything through ``repro.instrument.json_safe`` so
downstream tooling can archive outcomes without type errors.
"""

import json

import numpy as np

from repro.core.engine import DecodeContext
from repro.resilience import ResiliencePolicy
from repro.resilience.adaptive import AdaptationEvent
from repro.resilience.policies import SolverBudget
from repro.resilience.runtime import (
    OUTCOME_SCHEMA,
    AttemptRecord,
    DecodeOutcome,
)


class TestOutcomeSchemaStability:
    """The ``repro.outcome/v1`` wire schema is pinned here.

    Downstream consumers (the serve-layer response stream, archived
    chaos reports) key on these exact fields; changing them requires a
    schema-tag bump, and this test is the tripwire.
    """

    def test_schema_tag(self):
        assert OUTCOME_SCHEMA == "repro.outcome/v1"

    def test_round_trip_preserves_the_exact_key_set(self):
        outcome = DecodeOutcome(
            frame=np.zeros((4, 4)),
            status="ok",
            solver="fista",
            attempts=[
                AttemptRecord(round=0, solver="fista", status="success")
            ],
        )
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert sorted(payload) == [
            "adaptation_events",
            "attempts",
            "faults_seen",
            "health",
            "policy_snapshot",
            "schema",
            "solver",
            "status",
        ]
        assert payload["schema"] == OUTCOME_SCHEMA
        assert sorted(payload["attempts"][0]) == [
            "duration_s",
            "error",
            "iterations",
            "round",
            "solver",
            "status",
        ]

    def test_real_outcome_is_schema_tagged(self):
        from repro.resilience import ResilientDecoder

        decoder = ResilientDecoder(policy=ResiliencePolicy())
        frame = np.clip(
            np.random.default_rng(0).normal(0.5, 0.2, size=(8, 8)), 0.0, 1.0
        )
        outcome = decoder.decode(
            frame,
            DecodeContext(shape=frame.shape, sampling_fraction=0.5),
            np.random.default_rng(1),
        )
        round_tripped = json.loads(json.dumps(outcome.to_dict()))
        assert round_tripped["schema"] == OUTCOME_SCHEMA
        assert round_tripped["status"] == outcome.status


class TestDecodeOutcomeJson:
    def test_numpy_typed_attempts_dump(self):
        outcome = DecodeOutcome(
            frame=np.zeros((4, 4)),
            status="degraded",
            solver="fista",
            attempts=[
                AttemptRecord(
                    round=0,
                    solver="fista",
                    status="retry",
                    iterations=np.int64(200),
                    duration_s=np.float64(0.01),
                )
            ],
            faults_seen=("diverged",),
        )
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["attempts"][0]["iterations"] == 200
        assert payload["attempts"][0]["duration_s"] == 0.01

    def test_numpy_typed_policy_snapshot_dumps(self):
        outcome = DecodeOutcome(
            frame=np.zeros((4, 4)),
            status="ok",
            solver="fista",
            policy_snapshot={
                "budget": {"max_iterations": np.int64(400)},
                "open_rate": np.float32(0.25),
            },
        )
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["policy_snapshot"]["budget"]["max_iterations"] == 400

    def test_real_decode_outcome_dumps(self):
        from repro.resilience import ResilientDecoder

        decoder = ResilientDecoder(policy=ResiliencePolicy())
        frame = np.clip(
            np.random.default_rng(0).normal(0.5, 0.2, size=(8, 8)), 0.0, 1.0
        )
        outcome = decoder.decode(
            frame,
            DecodeContext(shape=frame.shape, sampling_fraction=0.5),
            np.random.default_rng(1),
        )
        json.dumps(outcome.to_dict())


class TestPolicySnapshotJson:
    def test_numpy_tuned_budget_dumps(self):
        policy = ResiliencePolicy(
            budget=SolverBudget(
                max_iterations=np.int64(250), time_limit_s=np.float64(0.5)
            ),
            budgets={"omp": SolverBudget(max_iterations=np.int32(64))},
        )
        payload = json.loads(json.dumps(policy.snapshot()))
        assert payload["budget"]["max_iterations"] == 250
        assert payload["budgets"]["omp"]["max_iterations"] == 64


class TestAdaptationEventJson:
    def test_numpy_typed_event_dumps(self):
        event = AdaptationEvent(
            frame_index=np.int64(3),
            action="escalate",
            detail="level up",
            level=np.int64(1),
        )
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload == {
            "frame_index": 3,
            "action": "escalate",
            "detail": "level up",
            "level": 1,
        }

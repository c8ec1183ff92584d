"""Generated plans through the supervised decode path.

Hypothesis draws a decode plan -- measurement family x basis x
per-pixel sampling weights (row sampling, the one family that supports
them) x exclusion mask x noise x solver options x seed -- and checks
that supervision decodes under every field of it:

(a) ``ResilientDecoder.decode_batch`` equals per-frame ``decode`` in
    frames, statuses, solvers and final RNG state, clean and under
    ``default_taxonomy(0.2)``;
(b) clean, an outcome delivered by the chain's first attempt equals
    ``DecodeEngine.decode`` of the plan with that solver and its budget
    merged over the plan's options, bit for bit;
(c) a supervised service stream's verdicts equal a direct
    ``decode_batch`` with the same plan, policy and stream seed -- and,
    when every frame was delivered by its first attempt, the engine's
    ``decode_batch`` of the first attempt's plan.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecodeContext, get_measurement
from repro.core.engine import DecodeEngine, use_engine
from repro.resilience import (
    ResiliencePolicy,
    ResilientDecoder,
    SolverBudget,
    chaos,
    default_taxonomy,
)
from repro.serve import DecodeService, StreamConfig, TenantConfig, VirtualClock

FRAMES = 3


def _policy():
    return ResiliencePolicy(budget=SolverBudget(max_iterations=200))


def _first_attempt_plan(plan, policy):
    """``plan`` as the fallback chain's first attempt decodes it."""
    solver = policy.fallback_chain[0]
    return replace(
        plan,
        solver=solver,
        solver_options={
            **plan.solver_options,
            **policy.budget_for(solver).solver_options(solver),
        },
    )


@st.composite
def plans(draw):
    """``(plan, seed)``: a plan on an even shape plus the decode seed."""
    family = draw(
        st.sampled_from(["row_sampling", "dense_codes", "block_sampling"])
    )
    sides = st.sampled_from([4, 6, 8])  # even: haar2 needs a level
    shape = (draw(sides), draw(sides))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed + 1)
    weights = None
    if get_measurement(family).supports_weights and draw(st.booleans()):
        weights = rng.uniform(0.2, 2.0, size=shape[0] * shape[1])
    mask = None
    if draw(st.booleans()):
        mask = rng.random(shape) < 0.2
        mask[0, 0] = False  # always leave a pixel to sample
    plan = DecodeContext(
        shape=shape,
        sampling_fraction=draw(st.sampled_from([0.5, 0.7])),
        solver_options=draw(st.sampled_from([{}, {"tolerance": 1e-5}])),
        basis=draw(st.sampled_from(["dct2", "haar2"])),
        noise_sigma=draw(st.sampled_from([0.0, 0.01])),
        exclude_mask=mask,
        weights=weights,
        measurement=family,
    )
    return plan, seed


def _frames(shape, seed):
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    rng = np.random.default_rng(seed)
    return [
        0.5 + 0.3 * np.sin(r / 2.0 + rng.uniform(0, np.pi)) * np.cos(c / 3.0)
        for _ in range(FRAMES)
    ]


def _signature(outcomes):
    return [(o.status, o.solver) for o in outcomes]


class TestGeneratedPlans:
    @settings(max_examples=20, deadline=None)
    @given(drawn=plans(), chaos_seed=st.one_of(st.none(), st.integers(0, 99)))
    def test_batch_equals_per_frame_decodes(self, drawn, chaos_seed):
        plan, seed = drawn
        frames = _frames(plan.shape, seed)

        def run(batch):
            decoder = ResilientDecoder(policy=_policy())
            rng = np.random.default_rng(seed)
            with chaos(
                *(
                    ()
                    if chaos_seed is None
                    else default_taxonomy(0.2, seed=chaos_seed)
                )
            ):
                if batch:
                    outcomes = decoder.decode_batch(frames, plan, rng)
                else:
                    outcomes = [decoder.decode(f, plan, rng) for f in frames]
            return outcomes, rng.bit_generator.state

        batch, batch_state = run(batch=True)
        serial, serial_state = run(batch=False)
        assert batch_state == serial_state
        assert _signature(batch) == _signature(serial)
        for got, want in zip(batch, serial):
            np.testing.assert_array_equal(got.frame, want.frame)

    @settings(max_examples=20, deadline=None)
    @given(drawn=plans())
    def test_first_attempt_is_the_engine_decode_of_the_plan(self, drawn):
        plan, seed = drawn
        policy = _policy()
        attempt_plan = _first_attempt_plan(plan, policy)
        with use_engine(DecodeEngine()) as engine:
            for index, frame in enumerate(_frames(plan.shape, seed)):
                outcome = ResilientDecoder(policy=policy).decode(
                    frame, plan, np.random.default_rng([seed, index])
                )
                if outcome.attempts[0].status != "ok":
                    continue
                assert outcome.solver == attempt_plan.solver
                expected = engine.decode(
                    frame, attempt_plan, np.random.default_rng([seed, index])
                )
                np.testing.assert_array_equal(outcome.frame, expected)

    @settings(max_examples=20, deadline=None)
    @given(drawn=plans())
    def test_service_stream_decodes_its_whole_plan(self, drawn):
        plan, seed = drawn
        frames = _frames(plan.shape, seed)
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("t"))
        service.register_stream(
            StreamConfig(
                name="t/s", tenant="t", plan=plan, policy=_policy(), seed=seed
            )
        )
        for frame in frames:
            service.submit("t/s", frame)
        verdicts = service.run_cycle()
        direct = ResilientDecoder(policy=_policy()).decode_batch(
            frames, plan, np.random.default_rng(seed)
        )
        outcomes = [v.outcome for v in verdicts]
        assert _signature(outcomes) == _signature(direct)
        for got, want in zip(outcomes, direct):
            np.testing.assert_array_equal(got.frame, want.frame)
        if all(o.attempts[0].status == "ok" for o in outcomes):
            with use_engine(DecodeEngine()) as engine:
                plain = engine.decode_batch(
                    frames,
                    _first_attempt_plan(plan, _policy()),
                    np.random.default_rng(seed),
                )
            for got, want in zip(outcomes, plain):
                np.testing.assert_array_equal(got.frame, want)

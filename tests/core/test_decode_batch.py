"""Tests for DecodeEngine.decode_batch and solve_batch.

Every batch route is the per-frame acquire -> solve recipe: a shared
``Phi`` only saves the per-frame draw and operator bind, so each route
must equal a manual serial replay bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core.engine import (
    DecodeContext,
    DecodeEngine,
    get_engine,
    use_engine,
)
from repro.core.executor import (
    ProcessExecutor,
    SerialExecutor,
    SupervisedExecutor,
)
from repro.core.measurement import get_measurement
from repro.core.solvers import solve, solve_batch


def _frames(count=4, shape=(12, 12), seed=0):
    rng = np.random.default_rng(seed)
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    return [
        np.clip(
            np.exp(
                -((r - shape[0] / 2 - np.sin(k)) ** 2 + (c - shape[1] / 2) ** 2)
                / 8.0
            )
            + 0.02 * rng.normal(size=shape),
            0.0,
            1.0,
        )
        for k in range(count)
    ]


def _plan(shape=(12, 12), **overrides):
    options = dict(
        shape=shape, sampling_fraction=0.5, solver="fista", noise_sigma=0.01
    )
    options.update(overrides)
    return DecodeContext(**options)


def _serial_reference(frames, plan, seed=0):
    engine = get_engine()
    rng = np.random.default_rng(seed)
    return [engine.decode(f, plan, rng) for f in frames], rng


class TestBatchSerialEquivalence:
    def test_batch_matches_serial_loop_bitwise(self):
        frames = _frames()
        plan = _plan()
        reference, ref_rng = _serial_reference(frames, plan)
        rng = np.random.default_rng(0)
        batch = get_engine().decode_batch(frames, plan, rng)
        for ref, out in zip(reference, batch):
            np.testing.assert_array_equal(out, ref)
        # The batch consumed the RNG stream exactly like the loop did.
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_empty_batch(self):
        assert get_engine().decode_batch([], _plan(), np.random.default_rng(0)) == []

    def test_mismatched_frame_rejected(self):
        with pytest.raises(ValueError, match="does not match plan shape"):
            get_engine().decode_batch(
                [np.zeros((8, 8))], _plan((12, 12)), np.random.default_rng(0)
            )

    def test_full_output_returns_decode_results(self):
        frames = _frames(2)
        plan = _plan()
        results = get_engine().decode_batch(
            frames, plan, np.random.default_rng(0), full_output=True
        )
        for item in results:
            assert item.reconstruction.shape == plan.shape
            assert (
                item.solver_result.coefficients.size
                == plan.shape[0] * plan.shape[1]
            )

    def test_instrumentation_counts_batch(self):
        frames = _frames(3)
        plan = _plan()
        with instrument.profiled() as session:
            get_engine().decode_batch(frames, plan, np.random.default_rng(0))
        counters = session.report()["metrics"]["counters"]
        assert counters["decode.batches"] == 1
        assert counters["decode.calls"] == 3


class TestExecutorParity:
    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            SupervisedExecutor(ProcessExecutor(2)),
            ProcessExecutor(2),
            "serial",
            2,
        ],
    )
    def test_backends_bitwise_identical(self, executor):
        frames = _frames(3)
        plan = _plan()
        reference, _ = _serial_reference(frames, plan)
        out = get_engine().decode_batch(
            frames, plan, np.random.default_rng(0), executor=executor
        )
        for ref, got in zip(reference, out):
            np.testing.assert_array_equal(got, ref)
        if hasattr(executor, "close"):
            executor.close()


class TestSharedPhi:
    def test_shared_phi_reuses_one_pattern(self):
        frames = _frames(3)
        plan = _plan(noise_sigma=0.0)
        results = get_engine().decode_batch(
            frames,
            plan,
            np.random.default_rng(0),
            shared_phi=True,
            full_output=True,
        )
        # Identical frames + one pattern + no noise => identical measurements.
        same = get_engine().decode_batch(
            [frames[0], frames[0]],
            plan,
            np.random.default_rng(0),
            shared_phi=True,
            full_output=True,
        )
        np.testing.assert_array_equal(same[0].measurements, same[1].measurements)
        assert len(results) == 3

    def test_vectorized_matches_per_frame_bitwise(self):
        frames = _frames(4)
        plan = _plan()
        batch_rng = np.random.default_rng(0)
        replay_rng = np.random.default_rng(0)
        with use_engine(DecodeEngine()) as engine:
            batch = engine.decode_batch(
                frames, plan, batch_rng, shared_phi=True
            )
            replay = _replay(frames, plan, replay_rng, True, engine)
        assert batch_rng.bit_generator.state == replay_rng.bit_generator.state
        for got, (reconstruction, _) in zip(batch, replay):
            np.testing.assert_array_equal(got, reconstruction)

    def test_unbatched_solver_falls_back_to_per_frame(self):
        frames = _frames(2)
        plan = _plan(solver="omp")
        out = get_engine().decode_batch(
            frames, plan, np.random.default_rng(0), shared_phi=True
        )
        assert len(out) == 2
        assert all(o.shape == plan.shape for o in out)


class TestSolveBatch:
    @pytest.mark.parametrize("solver", ["fista", "omp"])
    def test_rows_match_serial_solves(self, solver):
        operator = _operator(_plan())
        frames = _frames(3)
        stack = np.stack(
            [operator.matvec(operator.analyze(f.ravel())) for f in frames]
        )
        results = solve_batch(solver, operator, stack, sparsity=8)
        assert len(results) == 3
        for result, b in zip(results, stack):
            serial = solve(solver, operator, b, sparsity=8)
            np.testing.assert_array_equal(
                result.coefficients, serial.coefficients
            )
            assert result.iterations == serial.iterations
            assert result.solver == solver

    def test_solve_batch_rejects_bad_stack(self):
        with pytest.raises(ValueError):
            solve_batch("fista", _operator(_plan()), np.zeros(72))


def _operator(plan):
    from repro.core.sensing import RowSamplingMatrix

    engine = get_engine()
    n = plan.shape[0] * plan.shape[1]
    phi = RowSamplingMatrix.random(n, 72, np.random.default_rng(0))
    return engine.operator(phi, plan.shape)


def _replay(frames, plan, rng, shared_phi, engine):
    """The per-frame recipe by hand: draw, measure (+ noise), bind, solve.

    Honours the plan's exclusion mask.  Returns
    ``(reconstruction, solver_result)`` per frame.
    """
    model = get_measurement(plan.measurement)
    n = frames[0].size
    exclude = None
    if plan.exclude_mask is not None:
        exclude = np.flatnonzero(plan.exclude_mask.ravel())
    m = model.budget(
        n, max(1, int(round(plan.sampling_fraction * n))), exclude
    )
    if shared_phi:
        phi = model.draw(plan.shape, m, rng, exclude=exclude)
    out = []
    for frame in frames:
        if not shared_phi:
            phi = model.draw(plan.shape, m, rng, exclude=exclude)
        b = phi.apply(frame.ravel())
        if plan.noise_sigma > 0.0:
            b = b + rng.normal(0.0, plan.noise_sigma, size=b.shape)
        # A fresh bind per frame: sharing one operator must not matter.
        operator = engine.operator(
            phi, plan.shape, measurement=plan.measurement
        )
        result = solve(plan.solver, operator, b)
        reconstruction = operator.synthesize(result.coefficients)
        out.append((reconstruction.reshape(plan.shape), result))
    return out


@pytest.fixture(scope="module")
def process_pool():
    """One 2-worker pool shared by every generated example."""
    with ProcessExecutor(2) as pool:
        yield pool


class TestSingleDecodePath:
    """decode_batch equals the manual serial replay on every route."""

    @settings(max_examples=16, deadline=None)
    @given(
        family=st.sampled_from(
            ["row_sampling", "dense_codes", "block_sampling"]
        ),
        solver=st.sampled_from(["fista", "ista", "iht"]),
        shape=st.tuples(st.integers(4, 8), st.integers(4, 8)),
        seed=st.integers(0, 2**16),
        shared_phi=st.booleans(),
        masked=st.booleans(),
        executor=st.sampled_from([None, "serial", "process"]),
    )
    def test_batch_equals_serial_replay(
        self,
        family,
        solver,
        shape,
        seed,
        shared_phi,
        masked,
        executor,
        process_pool,
    ):
        if executor == "process":
            executor = process_pool
        frames = _frames(3, shape=shape, seed=seed)
        mask = None
        if masked and get_measurement(family).supports_exclusions:
            mask = np.random.default_rng(seed + 1).random(shape) < 0.2
            mask[0, 0] = False  # always leave a pixel to sample
        plan = _plan(
            shape,
            solver=solver,
            measurement=family,
            exclude_mask=mask,
        )
        batch_rng = np.random.default_rng(seed)
        replay_rng = np.random.default_rng(seed)
        with use_engine(DecodeEngine()) as engine:
            batch = engine.decode_batch(
                frames,
                plan,
                batch_rng,
                executor=executor,
                shared_phi=shared_phi,
                full_output=True,
            )
            replay = _replay(frames, plan, replay_rng, shared_phi, engine)
        assert batch_rng.bit_generator.state == replay_rng.bit_generator.state
        for got, (reconstruction, result) in zip(batch, replay):
            np.testing.assert_array_equal(got.reconstruction, reconstruction)
            assert got.solver_result.iterations == result.iterations
            assert got.solver_result.converged == result.converged

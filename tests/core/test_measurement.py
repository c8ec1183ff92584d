"""Tests for the pluggable measurement-family layer.

Covers the ISSUE-10 contract: the registry (mirroring
``register_basis``), carrier resolution, per-family adjoint dot-tests,
bitwise serial-vs-batch equality of every family's shared-Phi path, the
code-carrier protocol every carrier answers (applies against
``to_matrix()``, bitwise ``apply_batch``, support, bytes, norm bound), the
pinned regression that ``measurement="row_sampling"`` reproduces the
pre-refactor decode recipe bit-for-bit across the engine, resilient and
batch routes, dense-code exclusion semantics (zeroed columns with
mask-independent RNG consumption), and the capability-flag degradation
paths.
"""

import numpy as np
import pytest

from repro.core.engine import DecodeContext, DecodeEngine, use_engine
from repro.core.measurement import (
    BlockSamplingMatrix,
    BlockSamplingModel,
    DenseCodeMatrix,
    DenseCodesModel,
    MeasurementModel,
    RowSamplingModel,
    get_measurement,
    measurement_names,
    register_measurement,
    resolve_measurement_for,
)
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve

FAMILIES = ("row_sampling", "dense_codes", "block_sampling")


def smooth_frame(shape, seed=0):
    rng = np.random.default_rng(seed)
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    blob = np.exp(-((r - shape[0] / 2) ** 2 + (c - shape[1] / 2) ** 2) / 8.0)
    return np.clip(blob + 0.02 * rng.normal(size=shape), 0.0, 1.0)


class TestRegistry:
    def test_default_families_registered(self):
        assert set(FAMILIES) <= set(measurement_names())

    def test_get_unknown_name_lists_vocabulary(self):
        with pytest.raises(KeyError, match="row_sampling"):
            get_measurement("nope")

    def test_register_stamps_registry_name(self):
        register_measurement("hadamard_codes", DenseCodesModel("hadamard"))
        try:
            model = get_measurement("hadamard_codes")
            assert model.name == "hadamard_codes"
            assert model.code == "hadamard"
        finally:
            from repro.core import measurement as m

            del m._MEASUREMENT_MODELS["hadamard_codes"]

    def test_register_accepts_factory(self):
        register_measurement("factory_codes", DenseCodesModel)
        try:
            assert isinstance(
                get_measurement("factory_codes"), DenseCodesModel
            )
        finally:
            from repro.core import measurement as m

            del m._MEASUREMENT_MODELS["factory_codes"]

    def test_register_rejects_non_models(self):
        with pytest.raises(TypeError, match="MeasurementModel"):
            register_measurement("bad", object())
        with pytest.raises(ValueError, match="non-empty string"):
            register_measurement("", DenseCodesModel())

    def test_dense_codes_rejects_unknown_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            DenseCodesModel("cauchy")


class TestCarrierResolution:
    def test_each_family_resolves_from_its_carrier(self):
        rng = np.random.default_rng(0)
        for name in FAMILIES:
            phi = get_measurement(name).draw((8, 8), 16, rng)
            assert resolve_measurement_for(phi).name == name

    def test_exact_type_beats_subclass_match(self):
        # BlockSamplingMatrix *is a* DenseCodeMatrix; resolution must
        # still recover block_sampling, not dense_codes.
        rng = np.random.default_rng(1)
        phi = get_measurement("block_sampling").draw((8, 8), 12, rng)
        assert isinstance(phi, DenseCodeMatrix)
        assert resolve_measurement_for(phi).name == "block_sampling"

    def test_raw_ndarray_has_no_family(self):
        with pytest.raises(TypeError, match="no registered"):
            resolve_measurement_for(np.eye(4))


class TestAdjointDotTests:
    """<Phi x, y> == <x, Phi^T y> for every family's carrier and the
    engine operator built from it."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_carrier_adjoint(self, name):
        rng = np.random.default_rng(2)
        shape, m = (8, 8), 24
        phi = get_measurement(name).draw(shape, m, rng)
        x = rng.normal(size=64)
        y = rng.normal(size=m)
        forward = float(np.dot(phi.apply(x), y))
        backward = float(np.dot(x, phi.adjoint(y)))
        assert forward == pytest.approx(backward, rel=1e-12)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_engine_operator_adjoint(self, name):
        rng = np.random.default_rng(3)
        shape, m = (8, 8), 24
        with use_engine(DecodeEngine()) as engine:
            phi = get_measurement(name).draw(shape, m, rng)
            operator = engine.operator(phi, shape, measurement=name)
            x = rng.normal(size=64)
            y = rng.normal(size=m)
            forward = float(np.dot(operator.matvec(x), y))
            backward = float(np.dot(x, operator.rmatvec(y)))
            assert forward == pytest.approx(backward, rel=1e-10)


class TestSerialVsBatchBitwise:
    """Each family's shared-Phi batch matches serial solves."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_shared_phi_batch_matches_manual_serial(self, name):
        shape = (8, 8)
        frames = [smooth_frame(shape, seed=s) for s in range(3)]
        plan = DecodeContext(
            shape=shape, sampling_fraction=0.6, measurement=name
        )
        with use_engine(DecodeEngine()) as engine:
            batch = engine.decode_batch(
                frames, plan, np.random.default_rng(7), shared_phi=True
            )
            # Replay the exact acquisition serially: same seed draws the
            # same shared phi, then solve each frame alone.
            rng = np.random.default_rng(7)
            model = get_measurement(name)
            m = model.budget(64, int(round(0.6 * 64)), None)
            phi = model.draw(shape, m, rng)
            operator = engine.operator(phi, shape, measurement=name)
            for frame, batched in zip(frames, batch):
                result = solve(
                    plan.solver, operator, phi.apply(frame.ravel())
                )
                serial = operator.synthesize(result.coefficients).reshape(
                    shape
                )
                np.testing.assert_array_equal(batched, serial)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_unshared_batch_matches_serial_decode(self, name):
        shape = (8, 8)
        frames = [smooth_frame(shape, seed=s) for s in range(3)]
        plan = DecodeContext(
            shape=shape, sampling_fraction=0.6, measurement=name
        )
        with use_engine(DecodeEngine()) as engine:
            batch = engine.decode_batch(
                frames, plan, np.random.default_rng(11)
            )
            rng = np.random.default_rng(11)
            serial = [engine.decode(frame, plan, rng) for frame in frames]
        for b, s in zip(batch, serial):
            np.testing.assert_array_equal(b, s)


class TestRowSamplingRegression:
    """``measurement="row_sampling"`` is bit-identical to the
    pre-refactor decode recipe on every route."""

    def _reference_decode(self, frame, fraction, seed, exclude=None):
        """The seed repo's hard-wired recipe, reproduced literally."""
        shape = frame.shape
        n = frame.size
        rng = np.random.default_rng(seed)
        m = int(round(fraction * n))
        if exclude is not None:
            m = min(m, n - len(exclude))
        phi = RowSamplingMatrix.random(n, m, rng, exclude=exclude)
        with use_engine(DecodeEngine()) as engine:
            operator = engine.operator(phi, shape)
            result = solve("fista", operator, phi.apply(frame.ravel()))
            return operator.synthesize(result.coefficients).reshape(shape)

    def test_engine_route_pinned(self):
        frame = smooth_frame((16, 16), seed=4)
        reference = self._reference_decode(frame, 0.5, seed=21)
        plan = DecodeContext(
            shape=frame.shape,
            sampling_fraction=0.5,
            measurement="row_sampling",
        )
        with use_engine(DecodeEngine()) as engine:
            decoded = engine.decode(frame, plan, np.random.default_rng(21))
        np.testing.assert_array_equal(decoded, reference)

    def test_engine_route_pinned_with_exclusions(self):
        frame = smooth_frame((16, 16), seed=5)
        mask = np.zeros(frame.shape, dtype=bool)
        mask[0, :4] = True
        reference = self._reference_decode(
            frame, 0.5, seed=22, exclude=np.flatnonzero(mask.ravel())
        )
        plan = DecodeContext(
            shape=frame.shape, sampling_fraction=0.5, exclude_mask=mask
        )
        with use_engine(DecodeEngine()) as engine:
            decoded = engine.decode(frame, plan, np.random.default_rng(22))
        np.testing.assert_array_equal(decoded, reference)

    def test_resilient_route_pinned(self):
        from repro.resilience import ResilientDecoder

        frame = smooth_frame((16, 16), seed=6)
        reference = self._reference_decode(frame, 0.5, seed=23)
        outcome = ResilientDecoder().decode(
            frame,
            DecodeContext(shape=frame.shape, sampling_fraction=0.5),
            np.random.default_rng(23),
        )
        assert outcome.status == "ok"
        np.testing.assert_array_equal(outcome.frame, reference)

    def test_batch_route_pinned(self):
        frames = [smooth_frame((16, 16), seed=s) for s in (7, 8)]
        rng = np.random.default_rng(24)
        # The batch consumes one RNG stream across frames; replay it.
        rng_ref = np.random.default_rng(24)
        references = []
        for frame in frames:
            n = frame.size
            m = int(round(0.5 * n))
            phi = RowSamplingMatrix.random(n, m, rng_ref)
            with use_engine(DecodeEngine()) as engine:
                operator = engine.operator(phi, frame.shape)
                result = solve("fista", operator, phi.apply(frame.ravel()))
                references.append(
                    operator.synthesize(result.coefficients).reshape(
                        frame.shape
                    )
                )
        plan = DecodeContext(shape=(16, 16), sampling_fraction=0.5)
        with use_engine(DecodeEngine()) as engine:
            batch = engine.decode_batch(frames, plan, rng)
        for decoded, reference in zip(batch, references):
            np.testing.assert_array_equal(decoded, reference)

    def test_default_measurement_is_row_sampling(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        assert plan.measurement == "row_sampling"


class TestDenseCodeExclusions:
    def test_excluded_columns_are_zero(self):
        rng = np.random.default_rng(9)
        exclude = np.array([0, 5, 17])
        phi = get_measurement("dense_codes").draw(
            (8, 8), 20, rng, exclude=exclude
        )
        assert not phi.matrix[:, exclude].any()
        kept = np.setdiff1d(np.arange(64), exclude)
        assert phi.matrix[:, kept].any(axis=0).all()

    def test_rng_consumption_is_mask_independent(self):
        exclude = np.array([3, 10])
        a = get_measurement("dense_codes").draw(
            (8, 8), 20, np.random.default_rng(10), exclude=exclude
        )
        b = get_measurement("dense_codes").draw(
            (8, 8), 20, np.random.default_rng(10)
        )
        kept = np.setdiff1d(np.arange(64), exclude)
        np.testing.assert_array_equal(
            a.matrix[:, kept], b.matrix[:, kept]
        )

    def test_block_exclusions_zero_columns(self):
        rng = np.random.default_rng(11)
        exclude = np.array([1, 2, 3])
        phi = get_measurement("block_sampling").draw(
            (8, 8), 16, rng, exclude=exclude
        )
        assert not phi.matrix[:, exclude].any()

    def test_decode_with_exclusions_runs(self):
        frame = smooth_frame((8, 8), seed=12)
        mask = np.zeros(frame.shape, dtype=bool)
        mask[0, 0] = True
        plan = DecodeContext(
            shape=frame.shape,
            sampling_fraction=0.6,
            exclude_mask=mask,
            measurement="dense_codes",
        )
        with use_engine(DecodeEngine()) as engine:
            decoded = engine.decode(frame, plan, np.random.default_rng(13))
        assert decoded.shape == frame.shape
        assert np.isfinite(decoded).all()


class TestBlockStructure:
    def test_rows_confined_to_single_blocks(self):
        model = BlockSamplingModel(block_size=4)
        phi = model.draw((8, 8), 16, np.random.default_rng(14))
        assert isinstance(phi, BlockSamplingMatrix)
        assert phi.block_shape == (4, 4)
        blocks = []
        for r0 in range(0, 8, 4):
            for c0 in range(0, 8, 4):
                rr = np.arange(r0, r0 + 4)
                cc = np.arange(c0, c0 + 4)
                blocks.append(
                    set(((rr[:, None] * 8 + cc[None, :]).ravel()).tolist())
                )
        for row in phi.matrix:
            support = set(np.flatnonzero(row).tolist())
            assert any(support <= block for block in blocks)

    def test_measurements_distributed_over_blocks(self):
        model = BlockSamplingModel(block_size=4)
        phi = model.draw((8, 8), 10, np.random.default_rng(15))
        assert phi.m == 10
        # 4 blocks, 10 measurements -> 3/3/2/2 round-robin.
        counts = []
        for r0 in range(0, 8, 4):
            for c0 in range(0, 8, 4):
                rr = np.arange(r0, r0 + 4)
                cc = np.arange(c0, c0 + 4)
                pixels = (rr[:, None] * 8 + cc[None, :]).ravel()
                counts.append(
                    int(np.sum(phi.matrix[:, pixels].any(axis=1)))
                )
        assert counts == [3, 3, 2, 2]

    def test_requires_2d_shape(self):
        with pytest.raises(ValueError, match="2-D frame shape"):
            BlockSamplingModel().draw(64, 16, np.random.default_rng(16))

    def test_block_size_validated(self):
        with pytest.raises(ValueError, match="block_size"):
            BlockSamplingModel(block_size=0)


class TestCapabilities:
    def test_weights_rejected_by_dense_families(self):
        rng = np.random.default_rng(17)
        weights = np.ones(64)
        for name in ("dense_codes", "block_sampling"):
            with pytest.raises(ValueError, match="weights"):
                get_measurement(name).draw(
                    (8, 8), 16, rng, weights=weights
                )

    def test_weights_accepted_by_row_sampling(self):
        rng = np.random.default_rng(18)
        weights = np.ones(64)
        phi = get_measurement("row_sampling").draw(
            (8, 8), 16, rng, weights=weights
        )
        assert phi.m == 16

    def test_row_budget_clamps_to_surviving_pixels(self):
        model = get_measurement("row_sampling")
        assert model.budget(64, 40, np.arange(30)) == 34
        with pytest.raises(ValueError, match="leaves no pixels"):
            model.budget(64, 40, np.arange(64))

    def test_dense_budget_keeps_m(self):
        assert get_measurement("dense_codes").budget(64, 40, np.arange(30)) == 40

    def test_base_budget_rejects_unsupported_exclusions(self):
        class NoMask(MeasurementModel):
            name = "nomask"
            supports_exclusions = False

        with pytest.raises(ValueError, match="exclusion"):
            NoMask().budget(64, 40, np.arange(3))

    def test_with_exclusions_checks_capability(self):
        class NoMask(DenseCodesModel):
            supports_exclusions = False

        register_measurement("nomask_ctx", NoMask())
        try:
            plan = DecodeContext(
                shape=(8, 8),
                sampling_fraction=0.5,
                measurement="nomask_ctx",
            )
            mask = np.zeros((8, 8), dtype=bool)
            mask[0, 0] = True
            with pytest.raises(ValueError, match="does not support"):
                plan.with_exclusions(mask)
            # An all-clear mask stays a no-op regardless of capability.
            assert plan.with_exclusions(np.zeros((8, 8), dtype=bool)) is plan
        finally:
            from repro.core import measurement as m

            del m._MEASUREMENT_MODELS["nomask_ctx"]

    def test_context_validates_measurement_name(self):
        with pytest.raises(KeyError, match="unknown measurement"):
            DecodeContext(
                shape=(8, 8),
                sampling_fraction=0.5,
                measurement="typo_family",
            )

    def test_operator_rejects_carrier_family_mismatch(self):
        rng = np.random.default_rng(19)
        phi = get_measurement("dense_codes").draw((8, 8), 16, rng)
        with use_engine(DecodeEngine()) as engine:
            with pytest.raises(TypeError, match="expects"):
                engine.operator(phi, (8, 8), measurement="row_sampling")


class TestHardwareExpansion:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_combine_on_full_readings_equals_measure(self, name):
        rng = np.random.default_rng(20)
        shape = (8, 8)
        model = get_measurement(name)
        phi = model.draw(shape, 20, rng)
        frame = smooth_frame(shape, seed=21)
        acquired = {i: float(v) for i, v in enumerate(frame.ravel())}
        measurements, missing = model.combine(phi, acquired)
        assert missing == 0
        np.testing.assert_allclose(
            measurements, phi.apply(frame.ravel())
        )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_control_words_cover_support(self, name):
        rng = np.random.default_rng(22)
        shape = (8, 8)
        model = get_measurement(name)
        phi = model.draw(shape, 20, rng)
        words = model.control_words(phi, shape)
        assert len(words) == shape[1]
        grid = np.stack(words, axis=1)
        np.testing.assert_array_equal(
            grid, phi.support_mask().reshape(shape)
        )

    def test_control_words_shape_mismatch_raises(self):
        rng = np.random.default_rng(23)
        phi = get_measurement("dense_codes").draw((8, 8), 16, rng)
        with pytest.raises(ValueError, match="does not hold"):
            get_measurement("dense_codes").control_words(phi, (4, 4))

    def test_dense_support_is_full_array(self):
        rng = np.random.default_rng(24)
        model = get_measurement("dense_codes")
        phi = model.draw((8, 8), 16, rng)
        assert phi.support_mask().all()


_PROTOCOL_MODELS = {
    **{name: get_measurement(name) for name in measurement_names()},
    "dense_codes-hadamard": DenseCodesModel("hadamard"),
    "dense_codes-gaussian": DenseCodesModel("gaussian"),
}
"""Every registered family plus the two other dense ensembles."""

_PROTOCOL_CASES = [
    (name, masked) for name in _PROTOCOL_MODELS for masked in (False, True)
]


class TestCarrierProtocol:
    """Every carrier answers the one protocol ``CompositeOperator`` uses."""

    TOL = 1e-10

    @staticmethod
    def _draw(name, masked):
        shape, m = (8, 8), 24
        exclude = np.array([0, 9, 18, 27, 63]) if masked else None
        phi = _PROTOCOL_MODELS[name].draw(
            shape, m, np.random.default_rng(40), exclude=exclude
        )
        return phi, phi.to_matrix()

    @pytest.mark.parametrize("name, masked", _PROTOCOL_CASES)
    def test_applies_match_the_matrix(self, name, masked):
        phi, matrix = self._draw(name, masked)
        assert (phi.m, phi.n) == matrix.shape
        rng = np.random.default_rng(41)
        x = rng.normal(size=phi.n)
        y = rng.normal(size=phi.m)
        np.testing.assert_allclose(
            phi.apply(x), matrix @ x, rtol=0, atol=self.TOL
        )
        np.testing.assert_allclose(
            phi.adjoint(y), matrix.T @ y, rtol=0, atol=self.TOL
        )
        assert abs(phi.apply(x) @ y - x @ phi.adjoint(y)) <= self.TOL

    @pytest.mark.parametrize("name, masked", _PROTOCOL_CASES)
    def test_apply_batch_is_bitwise_apply(self, name, masked):
        phi, _ = self._draw(name, masked)
        stack = np.random.default_rng(42).normal(size=(5, phi.n))
        batched = phi.apply_batch(stack)
        assert batched.shape == (5, phi.m)
        for row, out in zip(stack, batched):
            np.testing.assert_array_equal(out, phi.apply(row))

    @pytest.mark.parametrize("name, masked", _PROTOCOL_CASES)
    def test_support_mask_is_the_nonzero_columns(self, name, masked):
        phi, matrix = self._draw(name, masked)
        np.testing.assert_array_equal(
            phi.support_mask(), np.any(matrix != 0.0, axis=0)
        )
        if masked:
            assert not phi.support_mask()[[0, 9, 18, 27, 63]].any()

    @pytest.mark.parametrize("name, masked", _PROTOCOL_CASES)
    def test_nbytes_are_the_stored_arrays(self, name, masked):
        phi, _ = self._draw(name, masked)
        stored = [v for v in vars(phi).values() if isinstance(v, np.ndarray)]
        assert stored
        assert phi.nbytes == sum(v.nbytes for v in stored)

    @pytest.mark.parametrize("name, masked", _PROTOCOL_CASES)
    def test_norm_bound_bounds_the_norm(self, name, masked):
        phi, matrix = self._draw(name, masked)
        if name == "row_sampling":
            assert phi.norm_bound == 1.0
        else:
            assert phi.norm_bound is None
        if phi.norm_bound is not None:
            assert phi.norm_bound >= np.linalg.norm(matrix, 2)

    def test_to_matrix_is_a_writable_copy(self):
        phi, matrix = self._draw("dense_codes", False)
        matrix[0, 0] = 7.0
        assert phi.to_matrix()[0, 0] != 7.0

    def test_apply_batch_checks_the_stack(self):
        for name in ("row_sampling", "dense_codes"):
            phi, _ = self._draw(name, False)
            with pytest.raises(ValueError, match="pixel stack"):
                phi.apply_batch(np.zeros(phi.n))
            with pytest.raises(ValueError, match="pixel stack"):
                phi.apply_batch(np.zeros((2, phi.n + 1)))


class TestCacheKeys:
    def test_measurement_widens_cache_key(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8), measurement="row_sampling")
        engine.entry_for((8, 8), measurement="dense_codes")
        assert engine.cache.misses == 2
        assert ((8, 8), "dct2", "row_sampling") in engine.cache
        assert ((8, 8), "dct2", "dense_codes") in engine.cache


class TestCarrierValidation:
    def test_dense_carrier_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseCodeMatrix(matrix=np.ones(4))

    def test_dense_carrier_is_read_only(self):
        phi = DenseCodeMatrix(matrix=np.ones((2, 4)))
        with pytest.raises(ValueError):
            phi.matrix[0, 0] = 2.0

    def test_apply_and_adjoint_check_lengths(self):
        phi = DenseCodeMatrix(matrix=np.ones((2, 4)))
        with pytest.raises(ValueError, match="does not match n"):
            phi.apply(np.ones(3))
        with pytest.raises(ValueError, match="does not match m"):
            phi.adjoint(np.ones(3))

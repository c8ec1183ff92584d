"""Integration tests for the end-to-end flexible encoder."""

import numpy as np
import pytest

from repro.array import ActiveMatrix, FlexibleEncoder, ReadoutChain
from repro.core.dct import Dct2Basis
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve
from repro.devices.defects import DefectMap
from repro.devices.variation import VariationModel


def _smooth(shape):
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    return 0.5 + 0.4 * np.sin(r / 4.0) * np.cos(c / 5.0)


class TestNormalizedScan:
    def test_ideal_chain_matches_phi_y(self):
        shape = (8, 8)
        frame = np.random.default_rng(0).random(shape)
        encoder = FlexibleEncoder(
            ActiveMatrix(shape),
            readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=16),
        )
        rng = np.random.default_rng(1)
        phi = RowSamplingMatrix.random(64, 30, rng)
        output = encoder.scan_normalized(frame, phi)
        assert np.allclose(output.measurements, phi.apply(frame.ravel()), atol=1e-4)

    def test_scan_cycle_count(self):
        shape = (8, 8)
        encoder = FlexibleEncoder(ActiveMatrix(shape))
        phi = RowSamplingMatrix.random(64, 30, np.random.default_rng(2))
        output = encoder.scan_normalized(_smooth(shape), phi)
        assert output.schedule.num_cycles == 8
        assert output.scan_time_s > 0

    def test_decoding_the_encoder_output(self):
        shape = (16, 16)
        frame = _smooth(shape)
        encoder = FlexibleEncoder(ActiveMatrix(shape))
        rng = np.random.default_rng(3)
        phi = RowSamplingMatrix.random(256, 150, rng)
        output = encoder.scan_normalized(frame, phi)
        operator = CompositeOperator(phi, Dct2Basis(shape))
        result = solve("fista", operator, output.measurements)
        recon = operator.synthesize(result.coefficients).reshape(shape)
        assert rmse(frame, recon) < 0.03

    def test_full_readout_baseline(self):
        shape = (8, 8)
        frame = _smooth(shape)
        encoder = FlexibleEncoder(
            ActiveMatrix(shape),
            readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=16),
        )
        full = encoder.full_readout_normalized(frame)
        assert np.allclose(full, frame, atol=1e-4)


class TestMeasurementFamilies:
    """The scan path serves any registered measurement family."""

    def _ideal_encoder(self, shape):
        return FlexibleEncoder(
            ActiveMatrix(shape),
            readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=16),
        )

    @pytest.mark.parametrize("family", ["dense_codes", "block_sampling"])
    def test_ideal_chain_matches_model_measure(self, family):
        from repro.core.measurement import get_measurement

        shape = (8, 8)
        frame = np.random.default_rng(0).random(shape)
        model = get_measurement(family)
        phi = model.draw(shape, 30, np.random.default_rng(1))
        output = self._ideal_encoder(shape).scan_normalized(frame, phi)
        # Summed readout accumulates per-pixel ADC quantisation, so the
        # tolerance scales with the code support (64 pixels here).
        assert np.allclose(
            output.measurements,
            phi.apply(frame.ravel()),
            atol=1e-3,
        )
        assert output.missing_reads == 0

    @pytest.mark.parametrize(
        "family", ["row_sampling", "dense_codes", "block_sampling"]
    )
    def test_stuck_line_chaos_perturbs_any_family(self, family):
        from repro.core.measurement import get_measurement
        from repro.resilience import StuckLineInjector, chaos

        shape = (8, 8)
        frame = np.random.default_rng(2).random(shape)
        model = get_measurement(family)
        phi = model.draw(shape, 40, np.random.default_rng(3))
        clean = self._ideal_encoder(shape).scan_normalized(frame, phi)
        injector = StuckLineInjector(
            rate=1.0, seed=4, mode="dead", max_lines=2
        )
        with chaos(injector):
            faulty = self._ideal_encoder(shape).scan_normalized(frame, phi)
        assert injector.stuck_rows  # the fault actually fired
        assert faulty.missing_reads > 0
        assert not np.allclose(faulty.measurements, clean.measurements)


class TestTemperatureScan:
    def _encoder(self, shape, defect_rate=0.0, seed=0):
        rng = np.random.default_rng(seed)
        defects = (
            DefectMap.sample(shape, defect_rate, rng) if defect_rate else None
        )
        array = ActiveMatrix(
            shape,
            variation=VariationModel(mobility_sigma=0.05, vth_sigma=0.02, seed=1),
            defect_map=defects,
        )
        _, high = array.current_bounds(20.0, 100.0)
        readout = ReadoutChain.for_current_range(high)
        return FlexibleEncoder(array, readout=readout), defects

    def test_calibrated_scan_accurate(self):
        shape = (12, 12)
        encoder, _ = self._encoder(shape)
        encoder.calibrate_temperature(20.0, 100.0)
        field = 30.0 + 40.0 * _smooth(shape)
        phi = RowSamplingMatrix.random(144, 144, np.random.default_rng(4))
        output = encoder.scan_temperature(field, phi)
        expected = (100.0 - field) / 80.0
        assert np.max(np.abs(output.measurements - expected.ravel())) < 0.05

    def test_uncalibrated_scan_needs_ranged_readout(self):
        shape = (8, 8)
        array = ActiveMatrix(shape)
        # Default readout saturates at these currents -> degenerate span.
        encoder = FlexibleEncoder(array)
        field = np.full(shape, 50.0)
        phi = RowSamplingMatrix.random(64, 10, np.random.default_rng(5))
        with pytest.raises(ValueError):
            encoder.scan_temperature(field, phi)

    def test_reconstruction_with_defects_excluded(self):
        shape = (16, 16)
        encoder, defects = self._encoder(shape, defect_rate=0.08, seed=6)
        encoder.calibrate_temperature(20.0, 100.0)
        field = 30.0 + 40.0 * _smooth(shape)
        exclude = np.flatnonzero(defects.mask().ravel())
        phi = RowSamplingMatrix.random(
            256, 140, np.random.default_rng(7), exclude=exclude
        )
        output = encoder.scan_temperature(field, phi)
        operator = CompositeOperator(phi, Dct2Basis(shape))
        result = solve("fista", operator, output.measurements)
        normalized = operator.synthesize(result.coefficients).reshape(shape)
        recovered = 20.0 + (1.0 - normalized) * 80.0
        assert rmse(field, recovered) < 3.0  # degrees C

    def test_driver_shape_mismatch_rejected(self):
        from repro.array.drivers import ScanDrivers

        with pytest.raises(ValueError):
            FlexibleEncoder(ActiveMatrix((4, 4)), drivers=ScanDrivers((6, 6)))

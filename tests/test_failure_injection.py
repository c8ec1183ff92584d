"""Cross-cutting failure-injection tests.

Each scenario pushes a subsystem into a pathological corner and checks
the failure is *contained*: a clear exception or a graceful degradation,
never silent nonsense.
"""

import numpy as np
import pytest

from repro.array import ActiveMatrix, FlexibleEncoder, ReadoutChain
from repro.circuits.logic_sim import LogicSimulator
from repro.circuits.mna import ConvergenceError, MnaSimulator
from repro.circuits.netlist import GROUND, Circuit
from repro.core import (
    CompositeOperator,
    Dct2Basis,
    RowSamplingMatrix,
    rmse,
    sample_and_reconstruct,
    solve,
)
from repro.devices import DefectMap, DefectType, LineDefectMap, PixelDefect


class TestSolverCorners:
    def test_single_measurement_runs(self):
        """m = 1: every solver returns a finite answer of the right shape."""
        rng = np.random.default_rng(0)
        phi = RowSamplingMatrix.random(64, 1, rng)
        operator = CompositeOperator(phi, Dct2Basis((8, 8)))
        b = np.array([0.5])
        for name in ("fista", "omp", "iht"):
            result = solve(name, operator, b, sparsity=1)
            assert np.all(np.isfinite(result.coefficients))

    def test_zero_measurements_vector(self):
        """All-zero measurements recover the all-zero frame."""
        rng = np.random.default_rng(1)
        phi = RowSamplingMatrix.random(64, 32, rng)
        operator = CompositeOperator(phi, Dct2Basis((8, 8)))
        result = solve("fista", operator, np.zeros(32))
        assert np.allclose(result.coefficients, 0.0)

    def test_full_sampling_is_near_exact(self):
        """M = N degenerates to plain inversion (lam -> 0 removes the
        residual L1 shrinkage)."""
        rng = np.random.default_rng(2)
        frame = rng.random((8, 8))
        recon = sample_and_reconstruct(
            frame, 1.0, rng, solver_options={"lam": 1e-10}
        )
        assert rmse(frame, recon) < 1e-3


class TestEncoderCorners:
    def test_fully_defective_row_still_scans(self):
        """A dead row leaves the rest of the scan intact."""
        shape = (8, 8)
        dead = LineDefectMap.sample_lines(
            shape, 1, 0, np.random.default_rng(3),
            kind=DefectType.OPEN_CHANNEL,
        )
        array = ActiveMatrix(shape, defect_map=dead)
        encoder = FlexibleEncoder(
            array, readout=ReadoutChain(noise_sigma_v=0.0, adc_bits=16)
        )
        exclude = np.flatnonzero(dead.mask().ravel())
        phi = RowSamplingMatrix.random(
            64, 40, np.random.default_rng(4), exclude=exclude
        )
        frame = np.random.default_rng(5).random(shape)
        output = encoder.scan_normalized(frame, phi)
        assert np.all(np.isfinite(output.measurements))
        assert len(output.measurements) == 40

    def test_oversampling_after_exclusion_raises(self):
        """Asking for more samples than healthy pixels fails loudly."""
        shape = (4, 4)
        all_bad = DefectMap(
            shape=shape,
            defects=[
                PixelDefect(r, c, DefectType.OPEN_CHANNEL)
                for r in range(4)
                for c in range(4)
            ],
        )
        with pytest.raises(ValueError):
            sample_and_reconstruct(
                np.zeros(shape), 0.5, np.random.default_rng(0),
                exclude_mask=all_bad.mask(),
            )


class TestCircuitCorners:
    def test_floating_node_still_solves_via_gmin(self):
        """A node with no DC path resolves through the gmin leak."""
        circuit = Circuit("floating")
        circuit.add_voltage_source("v1", "a", GROUND, 1.0)
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "c", 1e-9)  # c floats at DC
        op = MnaSimulator(circuit).dc_operating_point()
        assert np.isfinite(op["c"])

    def test_contradictory_sources_raise(self):
        """Two sources forcing one net to different voltages cannot
        converge to a consistent solution."""
        circuit = Circuit("conflict")
        circuit.add_voltage_source("v1", "a", GROUND, 1.0)
        circuit.add_voltage_source("v2", "a", GROUND, 2.0)
        with pytest.raises((ConvergenceError, np.linalg.LinAlgError)):
            MnaSimulator(circuit).dc_operating_point()

    def test_zero_delay_loop_is_bounded(self):
        """A combinational loop (ring of inverters) terminates: the
        event queue drains because events beyond stop_s are dropped."""
        sim = LogicSimulator()
        sim.add_gate("u0", "INV", ["a"], "b")
        sim.add_gate("u1", "INV", ["b"], "c")
        sim.add_gate("u2", "INV", ["c"], "a_fb")
        # not actually closed (a != a_fb) -- now close it via a buffer
        sim2 = LogicSimulator()
        sim2.add_gate("u0", "INV", ["x"], "y")
        sim2.add_gate("u1", "BUF", ["y"], "x")
        waves = sim2.run(1e-3)  # oscillates; must return
        assert "x" in waves


class TestReadoutCorners:
    def test_one_bit_adc_binarizes(self):
        chain = ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=1)
        codes = chain.convert_normalized(np.linspace(0, 1, 20))
        assert set(np.unique(codes)) <= {0.0, 1.0}

    def test_saturating_input_clips_not_wraps(self):
        chain = ReadoutChain(noise_sigma_v=0.0)
        codes = chain.convert_normalized(np.array([10.0, -10.0]))
        assert codes[0] == 1.0
        assert codes[1] == 0.0

"""Case study 1: 2-D temperature imaging through the hardware stack.

Unlike the quickstart (pure math), this example runs the *full*
hardware-modelled chain of Fig. 4:

  thermal field (Celsius)
    -> Pt sensor + CNT access TFT per pixel (device variation, 8 %
       fabrication defects)
    -> per-pixel two-point calibration (the production-test step)
    -> sqrt(N)-cycle scan of a random Phi_M (defects excluded)
    -> amplifier / S-H / 10-bit ADC readout
    -> silicon-side FISTA decoder
    -> temperature map + RMSE in degrees Celsius

Run:  python examples/temperature_imaging.py
"""

import numpy as np

from repro.array import ActiveMatrix, FlexibleEncoder, ReadoutChain
from repro.core import DecodeContext, get_engine, get_measurement, rmse
from repro.datasets import ThermalHandGenerator
from repro.devices import DefectMap, VariationModel

T_LOW, T_HIGH = 20.0, 100.0


def main() -> None:
    shape = (32, 32)
    rng = np.random.default_rng(1)

    # Physical scene: a warm hand between 24 C and 33 C.
    generator = ThermalHandGenerator(shape=shape, seed=3)
    field = generator.celsius(generator.frame())

    # Fabricated array: mobility/Vth spread plus 8 % defective pixels.
    defects = DefectMap.sample(shape, 0.08, rng)
    array = ActiveMatrix(
        shape,
        variation=VariationModel(mobility_sigma=0.08, vth_sigma=0.03, seed=2),
        defect_map=defects,
    )
    _, max_current = array.current_bounds(T_LOW, T_HIGH)
    encoder = FlexibleEncoder(
        array, readout=ReadoutChain.for_current_range(max_current)
    )
    encoder.calibrate_temperature(T_LOW, T_HIGH)

    # FE-side encoding: random sampling of 55 % of the pixels, skipping
    # the defects found at test time.
    n = shape[0] * shape[1]
    phi = get_measurement("row_sampling").draw(
        shape,
        int(0.55 * n),
        rng,
        exclude=np.flatnonzero(defects.mask().ravel()),
    )
    output = encoder.scan_temperature(field, phi, T_LOW, T_HIGH)

    # Silicon-side decoding: the engine's solve step binds the scan's
    # Phi_M to its cached operator for this array shape.
    plan = DecodeContext(shape=shape, sampling_fraction=0.55, solver="fista")
    normalized, result, _ = get_engine().solve_acquired(
        plan, phi, output.measurements, full_output=True
    )
    recovered = T_LOW + (1.0 - np.clip(normalized, 0, 1)) * (T_HIGH - T_LOW)

    cost = output.schedule.communication_cost()
    print("Temperature imaging through the flexible CS encoder")
    print(f"  array:            {shape[0]}x{shape[1]} Pt pixels, "
          f"{defects.defect_rate:.0%} defective")
    print(f"  scan:             {cost['scan_cycles']} cycles, "
          f"{cost['adc_conversions']} ADC conversions "
          f"(cost ratio {cost['cost_ratio']:.2f})")
    print(f"  scan time:        {output.scan_time_s * 1e3:.1f} ms at 10 kHz")
    print(f"  decoder:          FISTA, {result.iterations} iterations")
    print(f"  temperature RMSE: {rmse(field, recovered):.2f} C over "
          f"[{field.min():.1f}, {field.max():.1f}] C")

    coarse = np.array2string(
        recovered[::8, ::8], precision=1, suppress_small=True
    )
    print("  recovered 4x4 thumbnail (C):")
    print("   " + coarse.replace("\n", "\n   "))


if __name__ == "__main__":
    main()

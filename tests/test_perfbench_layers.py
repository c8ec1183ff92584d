"""The end-to-end benchmark's layer tracer still finds every entry point.

``perfbench/layers.py`` wraps program functions by ``(module, owner,
name)`` for its per-layer breakdown (``--trace 1``).  A rename or
deletion in the program would make the traced run fail, so every
entry must still be in its owner's ``__dict__`` (the attribute the
tracer replaces and restores).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LAYERS_FILE = REPO_ROOT / "perfbench" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", LAYERS_FILE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _layers_module().LAYERS


@pytest.mark.parametrize(
    "module_name, owner_name, name",
    [entry[1:] for entry in _layers()],
    ids=str,
)
def test_traced_entry_point_exists(module_name, owner_name, name):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    assert name in vars(owner), (
        f"{module_name}.{owner_name or ''}.{name} is gone; the benchmark "
        "tracer wraps it by name"
    )


def test_operator_mode_names_stay_for_the_benchmark():
    """``perfbench/service_bench.py`` binds its first operator with
    ``engine.operator(..., mode=plan.operator_mode)``; both names stay,
    and neither can select anything but the implicit operators."""
    from dataclasses import FrozenInstanceError

    import numpy as np

    from repro.core import DecodeContext, DecodeEngine, get_measurement

    plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
    assert plan.operator_mode == "implicit"
    with pytest.raises(FrozenInstanceError):
        plan.operator_mode = "dense"
    phi = get_measurement(plan.measurement).draw(
        plan.shape, 32, np.random.default_rng(0)
    )
    engine = DecodeEngine()
    op = engine.operator(
        phi,
        plan.shape,
        plan.basis,
        mode=plan.operator_mode,
        measurement=plan.measurement,
    )
    assert op.shape == (32, 64)
    with pytest.raises(ValueError, match="implicit"):
        engine.operator(
            phi, plan.shape, plan.basis, mode="dense",
            measurement=plan.measurement,
        )
    with pytest.raises(TypeError):
        DecodeContext(
            shape=(8, 8), sampling_fraction=0.5, operator_mode="dense"
        )


@pytest.mark.parametrize(
    "family, power_applies",
    [("row_sampling", 0), ("dense_codes", 60), ("block_sampling", 60)],
)
def test_tracer_counts_applies_through_the_operator(family, power_applies):
    """The tracer counts applies by wrapping the operator classes'
    ``matvec`` / ``rmatvec`` / ``matvec_batch``; a 16x16 decode must
    still register them, and dense codes' 30-step power iteration as
    60 applies (row sampling carries the unit hint and runs none)."""
    import numpy as np

    from repro.core import DecodeContext, DecodeEngine
    from repro.core.operators import CompositeOperator

    originals = dict(vars(CompositeOperator))
    tracer = _layers_module().LayerTracer()
    tracer.install()
    try:
        frame = np.random.default_rng(0).random((16, 16))
        plan = DecodeContext((16, 16), 0.5, measurement=family)
        DecodeEngine().decode(frame, plan, np.random.default_rng(1))
    finally:
        tracer.restore()
    assert dict(vars(CompositeOperator)) == originals
    assert tracer.counts["operator_applies"] > 0
    assert tracer.counts["power_iteration_applies"] == power_applies

"""Workload/route registry integrity and suite expansion."""

import numpy as np
import pytest

from repro.bench import (
    Workload,
    cell_seed,
    dataset_names,
    get_route,
    get_workload,
    make_frames,
    register_workload,
    route_names,
    suite_cells,
    suite_names,
    workload_names,
)
from repro.bench.workloads import _WORKLOADS


class TestRegistry:
    def test_dataset_families(self):
        assert dataset_names() == ("tactile", "thermal", "ultrasound")

    def test_matrix_covers_the_issue_axes(self):
        workloads = [get_workload(name) for name in workload_names()]
        shapes = {w.shape for w in workloads}
        assert (32, 32) in shapes and (128, 128) in shapes
        assert {w.fault_rate for w in workloads} >= {0.0, 0.10, 0.20}
        assert len({w.sampling_fraction for w in workloads}) >= 2
        assert {w.dataset for w in workloads} == set(dataset_names())

    def test_names_follow_the_convention(self):
        w = get_workload("thermal-32x32-s50-f10")
        assert w.shape == (32, 32)
        assert w.sampling_fraction == 0.5
        assert w.fault_rate == 0.10

    def test_tier1_cells_exist(self):
        tiers = [get_workload(n).tier for n in workload_names()]
        assert tiers.count(1) >= 4

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_register_and_replace(self):
        original = dict(_WORKLOADS)
        try:
            w = Workload(
                name="custom-16x16-s50-f00",
                dataset="thermal",
                shape=(16, 16),
                sampling_fraction=0.5,
            )
            register_workload(w)
            assert get_workload(w.name) is w
        finally:
            _WORKLOADS.clear()
            _WORKLOADS.update(original)

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="shape"):
            Workload("x", "thermal", (4, 4), 0.5)
        with pytest.raises(ValueError, match="sampling_fraction"):
            Workload("x", "thermal", (16, 16), 0.0)
        with pytest.raises(ValueError, match="fault_rate"):
            Workload("x", "thermal", (16, 16), 0.5, fault_rate=2.0)
        with pytest.raises(ValueError, match="unknown dataset"):
            Workload("x", "seismic", (16, 16), 0.5)


class TestSuites:
    def test_suite_names(self):
        assert set(suite_names()) == {"tiny", "smoke", "full"}

    def test_every_suite_resolves(self):
        for suite in suite_names():
            cells = suite_cells(suite)
            assert cells
            for workload, route_name in cells:
                route = get_route(route_name)
                assert route.supports(workload), (
                    f"{suite}: {workload.name} x {route_name} pairs a "
                    "faulted workload with an unsupervised route"
                )

    def test_smoke_covers_the_tier1_set(self):
        cells = suite_cells("smoke")
        # The gated core is tier 1; the large-frame cells (128^2/256^2)
        # ride along as tier 2.  Tier-3 test cells never enter the
        # trajectory.
        assert all(w.tier in (1, 2) for w, _ in cells)
        tier1 = [(w, r) for w, r in cells if w.tier == 1]
        datasets = {w.dataset for w, _ in tier1}
        assert datasets == set(dataset_names())
        routes = {r for _, r in tier1}
        assert {"serial", "batch_shared", "resilient", "adaptive"} <= routes
        extra_routes = {r for _, r in cells}
        assert {"serial_uncached", "resilient_journal"} <= extra_routes

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown suite"):
            suite_cells("nightly")


class TestDeterminism:
    def test_cell_seed_is_stable_and_distinct(self):
        a = cell_seed(0, "thermal-32x32-s50-f00")
        assert a == cell_seed(0, "thermal-32x32-s50-f00")
        assert a != cell_seed(0, "tactile-32x32-s50-f00")
        assert a != cell_seed(1, "thermal-32x32-s50-f00")

    def test_make_frames_deterministic(self):
        w = get_workload("thermal-16x16-s50-f00")
        first = make_frames(w, 7)
        second = make_frames(w, 7)
        assert first.shape == (w.frames, 16, 16)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, make_frames(w, 8))


class TestRoutes:
    def test_route_vocabulary(self):
        assert set(route_names()) == {
            "serial",
            "serial_uncached",
            "thread",
            "process",
            "batch_shared",
            "resilient",
            "resilient_journal",
            "adaptive",
        }

    def test_engine_routes_refuse_faulted_workloads(self):
        faulted = get_workload("thermal-16x16-s50-f20")
        frames = make_frames(faulted, 0)[:1]
        for name in ("serial", "thread", "process", "batch_shared"):
            route = get_route(name)
            assert not route.supports(faulted)
            with pytest.raises(ValueError, match="supervised"):
                route.run(frames, faulted, 0)
        for name in ("resilient", "adaptive"):
            assert get_route(name).supports(faulted)

    def test_unknown_route_raises(self):
        with pytest.raises(KeyError, match="unknown route"):
            get_route("quantum")

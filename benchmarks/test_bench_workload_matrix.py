"""Bench MATRIX: tier-1 workload cells through the shared registry.

Unlike the figure-reproduction benches in this directory, this bench
takes its workload definitions from :mod:`repro.bench.workloads` -- the
same registry ``python -m repro.bench`` expands -- so the pytest bench
and the trajectory driver always time the identical cells.
"""

from repro.bench import get_route, get_workload, make_frames, suite_cells


def _run(workload, route_name, seed=0):
    route = get_route(route_name)
    frames = make_frames(workload, seed)
    return route.run(frames, workload, seed)


def test_bench_matrix_serial_thermal(benchmark):
    workload = get_workload("thermal-32x32-s50-f00")
    result = benchmark.pedantic(
        _run, args=(workload, "serial"), rounds=1, iterations=1
    )
    assert result.delivered == workload.frames
    assert result.ok


def test_bench_matrix_batch_shared_tactile(benchmark):
    workload = get_workload("tactile-32x32-s50-f00")
    result = benchmark.pedantic(
        _run, args=(workload, "batch_shared"), rounds=1, iterations=1
    )
    assert result.delivered == workload.frames


def test_bench_matrix_resilient_faulted(benchmark):
    workload = get_workload("thermal-32x32-s50-f10")
    result = benchmark.pedantic(
        _run, args=(workload, "resilient"), rounds=1, iterations=1
    )
    # Supervised route: every frame delivered despite injected faults.
    assert result.delivered == workload.frames


def test_bench_matrix_smoke_suite_is_runnable():
    # Every smoke cell must expand to a supported (workload, route) pair;
    # the trajectory driver relies on this invariant at run time.
    cells = suite_cells("smoke")
    assert cells
    for workload, route_name in cells:
        assert get_route(route_name).supports(workload)


def test_bench_matrix_serial_dense_route(benchmark):
    workload = get_workload("thermal-16x16-s50-f00")
    result = benchmark.pedantic(
        _run, args=(workload, "serial_dense"), rounds=1, iterations=1
    )
    assert result.delivered == workload.frames
    assert result.extras["operator_mode"] == "dense"


def test_bench_matrix_dense_route_guard_matches_engine():
    # The route-level size guard must track the engine's dense-mode
    # guard, or suites would admit cells the engine then rejects.
    from repro.bench.routes import _DENSE_MAX_CELLS
    from repro.core.engine import _DENSE_MODE_MAX_N

    assert _DENSE_MAX_CELLS == _DENSE_MODE_MAX_N
    dense = get_route("serial_dense")
    assert not dense.supports(get_workload("thermal-128x128-s50-f00"))
    assert dense.supports(get_workload("thermal-64x64-s50-f00"))


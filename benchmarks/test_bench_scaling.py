"""Bench SCALE: decode cost vs array size (whole-frame vs block)."""

from repro.experiments.scaling import run_scaling


def test_bench_scaling(benchmark):
    points = benchmark.pedantic(
        run_scaling, kwargs={"sides": (32, 64, 128)}, rounds=1, iterations=1
    )
    print()
    print("Decode scaling -- 50% sampling, FISTA")
    for point in points:
        print(point.row())
    # Quality stays in the usable band at every size, for both paths.
    for point in points:
        assert point.rmse_full < 0.08
        assert point.rmse_block < 0.08
    # The block path's cost is linear in tile count: going 64 -> 128
    # quadruples tiles, so its work should grow ~4x (generous 8x cap);
    # whole-frame growth is allowed to be steeper.  The cap reads the
    # counted operator applies, which no load on the host can move;
    # the sub-second wall times stay in the table above.
    by_side = {p.side: p for p in points}
    ratio_block = by_side[128].applies_block / by_side[64].applies_block
    assert ratio_block < 8.0

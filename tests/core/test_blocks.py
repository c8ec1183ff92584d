"""Tests for block-wise CS processing."""

import numpy as np
import pytest

from repro.core.blocks import BlockProcessor
from repro.core.errors import inject_sparse_errors
from repro.core.metrics import rmse


def _big_frame(shape=(32, 32)):
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    return 0.5 + 0.3 * np.sin(r / 6.0) * np.cos(c / 7.0) + 0.2 * np.exp(
        -((r - shape[0] / 2) ** 2 + (c - shape[1] / 2) ** 2) / 40.0
    )


class TestTiling:
    def test_block_count(self):
        processor = BlockProcessor(block_shape=(16, 16))
        assert processor.num_blocks((32, 32)) == 4
        assert processor.num_blocks((48, 32)) == 6

    def test_overlap_increases_block_count(self):
        plain = BlockProcessor(block_shape=(16, 16), overlap=0)
        overlapped = BlockProcessor(block_shape=(16, 16), overlap=8)
        assert overlapped.num_blocks((40, 40)) > plain.num_blocks((32, 32))

    def test_frame_smaller_than_block_rejected(self):
        processor = BlockProcessor(block_shape=(16, 16))
        with pytest.raises(ValueError, match="smaller than one block"):
            processor.num_blocks((12, 32))
        with pytest.raises(ValueError, match="smaller than one block"):
            processor.num_blocks((32, 15))

    def test_ragged_edges_covered_by_shifted_tiles(self):
        processor = BlockProcessor(block_shape=(16, 16))
        # 30 rows: tile row at 0 plus a tail tile shifted inward to 14.
        assert processor.num_blocks((30, 32)) == 4
        origins = processor._tiles((30, 32))
        assert origins == [(0, 0), (0, 16), (14, 0), (14, 16)]
        # Exact fits gain no extra tiles.
        assert processor.num_blocks((32, 32)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockProcessor(block_shape=(2, 16))
        with pytest.raises(ValueError):
            BlockProcessor(block_shape=(16, 16), overlap=16)
        with pytest.raises(ValueError):
            BlockProcessor(sampling_fraction=0.0)


class TestReconstruction:
    def test_reconstructs_smooth_frame(self):
        frame = _big_frame()
        processor = BlockProcessor(block_shape=(16, 16), sampling_fraction=0.6)
        out = processor.reconstruct(frame, np.random.default_rng(0))
        assert out.shape == frame.shape
        assert rmse(frame, out) < 0.05

    def test_overlap_blending_reduces_seams(self):
        frame = _big_frame((40, 40))
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        hard = BlockProcessor(block_shape=(16, 16), overlap=0,
                              sampling_fraction=0.55)
        soft = BlockProcessor(block_shape=(16, 16), overlap=8,
                              sampling_fraction=0.55)
        out_hard = hard.reconstruct(frame[:32, :32], rng_a)
        out_soft = soft.reconstruct(frame, rng_b)
        # seam metric: jump across the tile boundary row
        seam_hard = np.abs(np.diff(out_hard, axis=0))[15].mean()
        seam_soft = np.abs(np.diff(out_soft, axis=0))[15].mean()
        assert seam_soft < seam_hard + 0.02  # soft blending never much worse

    def test_exclusion_mask_respected(self):
        frame = _big_frame()
        rng = np.random.default_rng(2)
        corrupted, mask = inject_sparse_errors(frame, 0.1, rng)
        processor = BlockProcessor(block_shape=(16, 16), sampling_fraction=0.5)
        with_mask = processor.reconstruct(
            corrupted, np.random.default_rng(3), exclude_mask=mask
        )
        without = processor.reconstruct(corrupted, np.random.default_rng(3))
        assert rmse(frame, with_mask) < rmse(frame, without)

    def test_rejects_bad_input(self):
        processor = BlockProcessor(block_shape=(16, 16))
        with pytest.raises(ValueError):
            processor.reconstruct(np.zeros(32), np.random.default_rng(0))
        with pytest.raises(ValueError):
            processor.reconstruct(
                np.zeros((32, 32)), np.random.default_rng(0),
                exclude_mask=np.zeros((16, 16), dtype=bool),
            )


class TestStrategyHook:
    def test_strategy_object_validated(self):
        with pytest.raises(TypeError, match="reconstruct"):
            BlockProcessor(block_shape=(16, 16), strategy=object())

    def test_tiles_route_through_strategy(self):
        calls = []

        class Recorder:
            def reconstruct(self, tile, rng, **kwargs):
                calls.append((tile.shape, sorted(kwargs)))
                return np.zeros_like(tile)

        processor = BlockProcessor(block_shape=(16, 16), strategy=Recorder())
        out = processor.reconstruct(_big_frame(), np.random.default_rng(0))
        assert out.shape == (32, 32)
        assert calls == [((16, 16), [])] * 4

    def test_strategy_receives_local_error_mask(self):
        seen = []

        class Recorder:
            def reconstruct(self, tile, rng, error_mask=None, **_):
                seen.append(error_mask.sum())
                return np.zeros_like(tile)

        frame = _big_frame()
        mask = np.zeros((32, 32), dtype=bool)
        mask[:16, :16] = True  # first tile fully masked
        processor = BlockProcessor(block_shape=(16, 16), strategy=Recorder())
        processor.reconstruct(frame, np.random.default_rng(0),
                              exclude_mask=mask)
        assert seen == [256, 0, 0, 0]

    def test_resilient_strategy_collects_per_tile_outcomes(self):
        from repro.core.strategies import NaiveStrategy
        from repro.resilience import ResilientStrategy

        wrapped = ResilientStrategy(
            inner=NaiveStrategy(sampling_fraction=0.6)
        )
        processor = BlockProcessor(block_shape=(16, 16), strategy=wrapped)
        frame = _big_frame()
        out = processor.reconstruct(frame, np.random.default_rng(0))
        assert rmse(frame, out) < 0.05
        assert processor.last_outcomes is not None
        assert len(processor.last_outcomes) == 4
        origins = [origin for origin, _ in processor.last_outcomes]
        assert origins == [(0, 0), (0, 16), (16, 0), (16, 16)]
        for _, outcome in processor.last_outcomes:
            assert outcome.status == "ok"
            assert outcome.solver == "fista"

    def test_per_tile_degradation_not_per_frame(self):
        """A strategy that dies on one tile degrades that tile only."""
        from repro.core.strategies import NaiveStrategy
        from repro.resilience import ResiliencePolicy, ResilientStrategy
        from repro.resilience.policies import RetryPolicy

        class FlakyStrategy(NaiveStrategy):
            tile_count = 0

            def reconstruct(self, tile, rng, **kwargs):
                FlakyStrategy.tile_count += 1
                if FlakyStrategy.tile_count in (2, 3, 4):  # 2nd tile, all solvers
                    raise RuntimeError("injected tile fault")
                return super().reconstruct(tile, rng, **kwargs)

        wrapped = ResilientStrategy(
            inner=FlakyStrategy(sampling_fraction=0.6),
            policy=ResiliencePolicy(retry=RetryPolicy(max_rounds=1)),
        )
        processor = BlockProcessor(block_shape=(16, 16), strategy=wrapped)
        frame = _big_frame()
        out = processor.reconstruct(frame, np.random.default_rng(0))
        assert out.shape == frame.shape
        assert np.all(np.isfinite(out))
        statuses = [o.status for _, o in processor.last_outcomes]
        assert statuses.count("fallback") == 1  # only the faulted tile
        assert statuses.count("ok") == 3
        # The three healthy tiles still reconstruct well.
        good = np.ones((32, 32), dtype=bool)
        good[:16, 16:] = False
        frame_good = frame.copy()
        masked_rmse = np.sqrt(np.mean((frame_good[good] - out[good]) ** 2))
        assert masked_rmse < 0.05

    def test_engine_cache_shared_across_tiles(self):
        from repro.core.engine import DecodeEngine, use_engine

        processor = BlockProcessor(block_shape=(16, 16),
                                   sampling_fraction=0.6)
        with use_engine(DecodeEngine()) as engine:
            processor.reconstruct(_big_frame(), np.random.default_rng(0))
            # 4 tiles, one shape: one miss, three hits.
            assert engine.cache.misses == 1
            assert engine.cache.hits == 3

    def test_fully_excluded_tile_decodes_to_zeros(self):
        frame = _big_frame()
        mask = np.zeros((32, 32), dtype=bool)
        mask[:16, :16] = True
        processor = BlockProcessor(block_shape=(16, 16),
                                   sampling_fraction=0.5)
        out = processor.reconstruct(
            frame, np.random.default_rng(0), exclude_mask=mask
        )
        np.testing.assert_array_equal(out[:16, :16], 0.0)
        assert rmse(frame[16:, :], out[16:, :]) < 0.05


class TestRaggedReconstruction:
    def test_ragged_frame_fully_covered(self):
        frame = _big_frame((30, 28))
        processor = BlockProcessor(block_shape=(16, 16),
                                   sampling_fraction=0.6)
        out = processor.reconstruct(frame, np.random.default_rng(0))
        assert out.shape == frame.shape
        assert np.all(np.isfinite(out))
        assert rmse(frame, out) < 0.06

    def test_ragged_strategy_path_matches_grid_order(self):
        from repro.core.strategies import NaiveStrategy
        from repro.resilience import ResilientStrategy

        frame = _big_frame((30, 32))
        wrapped = ResilientStrategy(inner=NaiveStrategy(sampling_fraction=0.6))
        processor = BlockProcessor(block_shape=(16, 16), strategy=wrapped)
        processor.reconstruct(frame, np.random.default_rng(0))
        origins = [origin for origin, _ in processor.last_outcomes]
        assert origins == [(0, 0), (0, 16), (14, 0), (14, 16)]

    @pytest.mark.parametrize(
        "exclude_mask",
        [None, np.pad(np.ones((3, 3), dtype=bool), ((5, 22), (3, 26)))],
        ids=["None", "masked"],
    )
    def test_ragged_executor_outcome_order_stable(self, exclude_mask):
        """last_outcomes keeps tile-grid order and per-tile status, with or
        without pixels excluded from sampling."""
        from repro.core.strategies import NaiveStrategy
        from repro.resilience import ResilientStrategy

        frame = _big_frame((30, 32))
        wrapped = ResilientStrategy(inner=NaiveStrategy(sampling_fraction=0.6))
        processor = BlockProcessor(block_shape=(16, 16), strategy=wrapped)
        processor.reconstruct(
            frame, np.random.default_rng(0), exclude_mask=exclude_mask
        )
        origins = [origin for origin, _ in processor.last_outcomes]
        assert origins == [(0, 0), (0, 16), (14, 0), (14, 16)]
        assert all(o.status == "ok" for _, o in processor.last_outcomes)

"""Tests for the shared decode engine and its operator cache.

Covers the ISSUE-3 cache contract: hit/miss accounting, the LRU bound,
thread-safety under concurrent same-shape decodes, bit-exact equality
of cached vs. uncached reconstructions under a fixed seed, and the
regression test that resampling rounds cost one cache miss per shape.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.dct import Dct2Basis
from repro.core.engine import (
    CacheEntry,
    DecodeContext,
    DecodeEngine,
    OperatorCache,
    SeparableDct2Basis,
    basis_kinds,
    get_engine,
    register_basis,
    use_engine,
)
from repro.core.sensing import RowSamplingMatrix
from repro.core.strategies import ResamplingStrategy, sample_and_reconstruct


def smooth_frame(shape, seed=0):
    rng = np.random.default_rng(seed)
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    blob = np.exp(-((r - shape[0] / 2) ** 2 + (c - shape[1] / 2) ** 2) / 8.0)
    return np.clip(blob + 0.02 * rng.normal(size=shape), 0.0, 1.0)


class TestOperatorCache:
    def test_hit_miss_accounting(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8))
        stats = engine.cache.stats()
        assert stats == {
            "hits": 0, "misses": 1, "evictions": 0, "size": 1, "capacity": 32,
            "bytes": stats["bytes"],
        }
        assert stats["bytes"] > 0  # separable factors pin real memory
        engine.entry_for((8, 8))
        engine.entry_for((8, 8))
        assert engine.cache.hits == 2
        assert engine.cache.misses == 1
        engine.entry_for((8, 16))
        assert engine.cache.misses == 2
        assert len(engine.cache) == 2

    def test_distinct_basis_kinds_are_distinct_keys(self):
        engine = DecodeEngine()
        engine.entry_for((4, 8), "dct2")
        engine.entry_for((4, 8), "haar2")
        assert engine.cache.misses == 2
        assert ((4, 8), "dct2", "row_sampling") in engine.cache
        assert ((4, 8), "haar2", "row_sampling") in engine.cache

    def test_lru_bound_respected(self):
        engine = DecodeEngine(cache=OperatorCache(capacity=3))
        shapes = [(4, 4), (4, 5), (4, 6), (4, 7), (4, 8)]
        for shape in shapes:
            engine.entry_for(shape)
        assert len(engine.cache) == 3
        assert engine.cache.evictions == 2
        # Oldest two evicted, newest three retained.
        assert ((4, 4), "dct2", "row_sampling") not in engine.cache
        assert ((4, 5), "dct2", "row_sampling") not in engine.cache
        assert ((4, 8), "dct2", "row_sampling") in engine.cache

    def test_lru_recency_ordering(self):
        engine = DecodeEngine(cache=OperatorCache(capacity=2))
        engine.entry_for((4, 4))
        engine.entry_for((4, 5))
        engine.entry_for((4, 4))  # touch: (4, 4) is now most recent
        engine.entry_for((4, 6))  # evicts (4, 5), not (4, 4)
        assert ((4, 4), "dct2", "row_sampling") in engine.cache
        assert ((4, 5), "dct2", "row_sampling") not in engine.cache

    def test_clear_empties_but_keeps_counters(self):
        engine = DecodeEngine()
        engine.entry_for((4, 4))
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            OperatorCache(capacity=0)

    def test_thread_safety_concurrent_same_shape_decodes(self):
        engine = DecodeEngine()
        frame = smooth_frame((8, 8))
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.6)

        def decode(seed):
            rng = np.random.default_rng(seed)
            return engine.decode(frame, plan, rng)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(decode, range(16)))
        for recon in results:
            assert recon.shape == (8, 8)
            assert np.all(np.isfinite(recon))
        # The shared entry was built exactly once despite the race.
        assert engine.cache.misses == 1
        assert engine.cache.hits == 15
        assert len(engine.cache) == 1

    def test_builder_called_once_per_key(self):
        cache = OperatorCache()
        calls = []

        def builder():
            calls.append(1)
            return CacheEntry(key=("k",), basis=None)

        for _ in range(5):
            cache.get_or_create(("k",), builder)
        assert len(calls) == 1


class TestDecodeContext:
    def test_frozen_and_validated(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        with pytest.raises(AttributeError):
            plan.solver = "omp"
        with pytest.raises(TypeError):
            plan.solver_options["x"] = 1
        with pytest.raises(ValueError, match="sampling_fraction"):
            DecodeContext(shape=(8, 8), sampling_fraction=0.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            DecodeContext(shape=(8, 8), sampling_fraction=0.5, noise_sigma=-1)
        with pytest.raises(ValueError, match="shape"):
            DecodeContext(shape=(8,), sampling_fraction=0.5)

    def test_mask_copied_and_read_only(self):
        mask = np.zeros((8, 8), dtype=bool)
        plan = DecodeContext(
            shape=(8, 8), sampling_fraction=0.5, exclude_mask=mask
        )
        mask[0, 0] = True  # caller mutation must not leak into the plan
        assert not plan.exclude_mask[0, 0]
        with pytest.raises(ValueError):
            plan.exclude_mask[0, 1] = True

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="exclude_mask"):
            DecodeContext(
                shape=(8, 8),
                sampling_fraction=0.5,
                exclude_mask=np.zeros((4, 4), dtype=bool),
            )

    def test_frame_shape_checked_against_plan(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        with pytest.raises(ValueError, match="plan shape"):
            DecodeEngine().decode(
                np.zeros((4, 4)), plan, np.random.default_rng(0)
            )

    def test_for_frame_convenience(self):
        frame = np.zeros((6, 10))
        plan = DecodeContext.for_frame(frame, 0.5, solver="omp")
        assert plan.shape == (6, 10)
        assert plan.solver == "omp"

    def test_starving_mask_raises(self):
        plan = DecodeContext(
            shape=(8, 8),
            sampling_fraction=0.5,
            exclude_mask=np.ones((8, 8), dtype=bool),
        )
        with pytest.raises(ValueError, match="no pixels"):
            DecodeEngine().decode(
                smooth_frame((8, 8)), plan, np.random.default_rng(0)
            )


class TestBitExactness:
    def test_cached_equals_uncached(self):
        """A cache hit is a pure amortisation: a warm engine decodes the
        same bits as a fresh engine that builds its entry anew."""
        frame = smooth_frame((12, 12))
        plan = DecodeContext(
            shape=(12, 12), sampling_fraction=0.6, noise_sigma=0.01
        )
        cached = DecodeEngine()
        for seed in (0, 1, 2):
            a = cached.decode(frame, plan, np.random.default_rng(seed))
            fresh = DecodeEngine()
            b = fresh.decode(frame, plan, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, b)
            assert fresh.cache.misses == 1
        assert cached.cache.misses == 1
        assert cached.cache.hits == 2

    def test_every_engine_holds_a_cache(self):
        with pytest.raises(TypeError, match="OperatorCache"):
            DecodeEngine(cache=None)

    def test_repeated_cached_decodes_same_seed_identical(self):
        frame = smooth_frame((12, 12))
        plan = DecodeContext(shape=(12, 12), sampling_fraction=0.6)
        engine = DecodeEngine()
        a = engine.decode(frame, plan, np.random.default_rng(7))
        b = engine.decode(frame, plan, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_separable_basis_matches_fft_basis(self):
        """The accelerated DCT is the same transform as the FFT one."""
        shape = (9, 13)
        fast = SeparableDct2Basis(shape)
        reference = Dct2Basis(shape)
        rng = np.random.default_rng(0)
        vec = rng.normal(size=shape[0] * shape[1])
        np.testing.assert_allclose(
            fast.synthesize(vec), reference.synthesize(vec), atol=1e-10
        )
        np.testing.assert_allclose(
            fast.analyze(vec), reference.analyze(vec), atol=1e-10
        )
        # Orthonormality: round trip is the identity.
        np.testing.assert_allclose(
            fast.analyze(fast.synthesize(vec)), vec, atol=1e-10
        )

    def test_square_basis_builds_and_counts_one_factor(self):
        """A square frame shares its 1-D factor, and the applies equal
        the two-factor products bit for bit."""
        from repro.core.dct import dct_basis_1d

        factor = dct_basis_1d(16)
        basis = SeparableDct2Basis((16, 16))
        assert basis.nbytes == factor.nbytes
        assert SeparableDct2Basis((16, 8)).nbytes == (
            factor.nbytes + dct_basis_1d(8).nbytes
        )
        image = np.random.default_rng(0).normal(size=(16, 16))
        np.testing.assert_array_equal(
            basis.synthesize(image.ravel()),
            (factor @ image @ factor.T).ravel(),
        )
        np.testing.assert_array_equal(
            basis.analyze(image.ravel()), (factor.T @ image @ factor).ravel()
        )

    def test_spectral_norm_hint_used_for_row_sampling(self):
        engine = DecodeEngine()
        phi = RowSamplingMatrix.random(64, 32, np.random.default_rng(0))
        operator = engine.operator(phi, (8, 8))
        assert operator.spectral_norm() == 1.0

    def test_hint_dropped_for_dense_phi(self):
        from repro.core.measurement import DenseCodeMatrix
        from repro.core.sensing import gaussian_matrix

        engine = DecodeEngine()
        phi = DenseCodeMatrix(
            gaussian_matrix(32, 64, np.random.default_rng(0)), code="gaussian"
        )
        operator = engine.operator(phi, (8, 8))
        # Dense Gaussian Phi has no unit-norm guarantee: the measured
        # norm differs from 1 and must be what the solver sees.
        assert operator.spectral_norm() != 1.0

    def test_raw_array_phi_rejected(self):
        # Codes come from a measurement family; a bare matrix has none.
        with pytest.raises(TypeError, match="no registered measurement"):
            DecodeEngine().operator(np.ones((32, 64)), (8, 8))


class TestEngineSingleton:
    def test_use_engine_scopes_and_restores(self):
        original = get_engine()
        scoped = DecodeEngine()
        with use_engine(scoped) as active:
            assert active is scoped
            assert get_engine() is scoped
        assert get_engine() is original

    def test_sample_and_reconstruct_routes_through_default_engine(self):
        frame = smooth_frame((8, 8))
        with use_engine(DecodeEngine()) as engine:
            sample_and_reconstruct(frame, 0.5, np.random.default_rng(0))
            sample_and_reconstruct(frame, 0.5, np.random.default_rng(1))
            assert engine.cache.misses == 1
            assert engine.cache.hits == 1


class TestResamplingHoist:
    def test_one_cache_miss_per_shape_across_rounds(self):
        """Regression: resampling rounds must not rebuild the operator."""
        frame = smooth_frame((8, 8))
        strategy = ResamplingStrategy(sampling_fraction=0.6, rounds=5)
        with use_engine(DecodeEngine()) as engine:
            strategy.reconstruct(frame, np.random.default_rng(0))
            assert engine.cache.misses == 1
            assert engine.cache.hits == 4
            # A second shape costs exactly one more miss.
            strategy.reconstruct(smooth_frame((8, 16)), np.random.default_rng(0))
            assert engine.cache.misses == 2
            assert engine.cache.hits == 4 + 4


class TestCustomBasis:
    def test_register_and_decode(self):
        class IdentityBasis:
            orthonormal = True

            def __init__(self, shape):
                self.shape = tuple(shape)
                self.n = int(np.prod(shape))

            def synthesize(self, coeffs):
                return np.asarray(coeffs, dtype=float).ravel()

            def analyze(self, pixels):
                return np.asarray(pixels, dtype=float).ravel()

        register_basis("identity-test", IdentityBasis, orthonormal=True)
        try:
            assert "identity-test" in basis_kinds()
            frame = smooth_frame((8, 8))
            plan = DecodeContext(
                shape=(8, 8), sampling_fraction=1.0, basis="identity-test"
            )
            recon = DecodeEngine().decode(
                frame, plan, np.random.default_rng(0)
            )
            # Identity basis at full sampling: recovery up to the L1
            # shrinkage bias of the solver.
            np.testing.assert_allclose(recon, frame, atol=5e-3)
        finally:
            from repro.core import engine as engine_module

            engine_module._BASIS_KINDS.pop("identity-test", None)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown basis"):
            DecodeEngine().entry_for((8, 8), "no-such-basis")

    def test_bad_kind_name_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_basis("", lambda shape: None)

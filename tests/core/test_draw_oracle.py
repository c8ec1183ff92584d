"""Per-frame code draws against test-local reference draws.

Every +-1 code family draws its signs through one helper, one random
bit per sign.  The references below spell that recipe another way --
bytes from ``rng.integers(0, 256, dtype=np.uint8)``, each byte's bits
taken most-significant first by integer shifts, bit 1 the positive
sign -- and each family must reproduce it bit for bit and leave the
generator in the same state, over generated seeds, odd and even
shapes, and exclusion sets with and without repeats.  The row-sampling
carrier must keep an owned, read-only sorted copy of valid indices,
and the dense carrier must own its matrix.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from repro.core.measurement import (
    BlockSamplingModel,
    DenseCodeMatrix,
    DenseCodesModel,
)
from repro.core.sensing import (
    RowSamplingMatrix,
    bernoulli_matrix,
    hadamard_matrix,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIDES = st.integers(min_value=1, max_value=13)


def _zero_columns(matrix, exclude):
    if exclude:
        matrix[:, exclude] = 0.0
    return matrix


def reference_signs(rng, shape):
    """+-1.0 from ``ceil(count / 8)`` bytes, most-significant bit first."""
    count = int(np.prod(shape))
    octets = rng.integers(0, 256, size=(count + 7) // 8, dtype=np.uint8)
    shifts = np.arange(7, -1, -1, dtype=np.uint8)
    bits = ((octets[:, None] >> shifts) & 1).ravel()[:count]
    return np.where(bits == 1, 1.0, -1.0).reshape(shape)


def reference_bernoulli(m, n, rng, exclude):
    signs = reference_signs(rng, (m, n))
    return _zero_columns(signs / np.sqrt(m), exclude)


def reference_hadamard(m, n, rng, exclude):
    p = 1 << max(0, int(np.ceil(np.log2(n))))
    rows = rng.choice(p, size=m, replace=False)
    signs = reference_signs(rng, n)
    matrix = hadamard(p)[rows][:, :n] * signs / np.sqrt(m)
    return _zero_columns(matrix, exclude)


def reference_block(shape, m, rng, block_size, exclude):
    rows, cols = shape
    blocks = []
    for r0 in range(0, rows, block_size):
        for c0 in range(0, cols, block_size):
            rr = np.arange(r0, min(r0 + block_size, rows))
            cc = np.arange(c0, min(c0 + block_size, cols))
            blocks.append((rr[:, None] * cols + cc[None, :]).ravel())
    base, rem = divmod(m, len(blocks))
    matrix = np.zeros((m, rows * cols))
    row = 0
    for index, pixels in enumerate(blocks):
        m_b = base + (1 if index < rem else 0)
        if m_b == 0:
            continue
        signs = reference_signs(rng, (m_b, len(pixels)))
        matrix[row : row + m_b, pixels] = signs / np.sqrt(m_b)
        row += m_b
    return _zero_columns(matrix, exclude)


def _case(data, n):
    """``m`` and an exclusion list (repeats allowed, one pixel left)."""
    m = data.draw(st.integers(min_value=1, max_value=n), label="m")
    exclude = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, n - 1), max_size=max(0, n - 1)),
        ),
        label="exclude",
    )
    return m, exclude


def _assert_same_draw(got, expected, rng, reference_rng):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    rows=SIDES,
    cols=SIDES,
    half_word=st.booleans(),
    data=st.data(),
)
def test_bernoulli_matches_packed_bit_reference(
    seed, rows, cols, half_word, data
):
    """``half_word`` first makes an odd-length ``int32`` draw on both
    generators, so the code's bytes start from a buffered half word."""
    n = rows * cols
    m, exclude = _case(data, n)
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    if half_word:
        for generator in (rng, reference_rng):
            generator.integers(0, 2**31 - 1, size=3, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
    got = bernoulli_matrix(m, n, rng, exclude=exclude)
    expected = reference_bernoulli(m, n, reference_rng, exclude)
    _assert_same_draw(got, expected, rng, reference_rng)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, rows=SIDES, cols=SIDES, data=st.data())
def test_dense_codes_draw_matches_packed_bit_reference(
    seed, rows, cols, data
):
    """The registered ``dense_codes`` family hands the same matrix on."""
    n = rows * cols
    m, exclude = _case(data, n)
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    got = DenseCodesModel().draw((rows, cols), m, rng, exclude=exclude)
    expected = reference_bernoulli(m, n, reference_rng, exclude)
    _assert_same_draw(got.matrix, expected, rng, reference_rng)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, rows=SIDES, cols=SIDES, data=st.data())
def test_hadamard_matches_packed_bit_reference(seed, rows, cols, data):
    n = rows * cols
    m, exclude = _case(data, n)
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    got = hadamard_matrix(m, n, rng, exclude=exclude)
    expected = reference_hadamard(m, n, reference_rng, exclude)
    _assert_same_draw(got, expected, rng, reference_rng)


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    rows=SIDES,
    cols=SIDES,
    block_size=st.sampled_from([1, 2, 3, 4, 8]),
    data=st.data(),
)
def test_block_sampling_matches_packed_bit_reference(
    seed, rows, cols, block_size, data
):
    n = rows * cols
    m, exclude = _case(data, n)
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    got = BlockSamplingModel(block_size).draw(
        (rows, cols), m, rng, exclude=exclude
    )
    expected = reference_block(
        (rows, cols), m, reference_rng, block_size, exclude
    )
    _assert_same_draw(got.matrix, expected, rng, reference_rng)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    raw=st.lists(st.integers(min_value=-3, max_value=45), max_size=40),
)
@example(n=8, raw=[1, 3, 5])  # sorted, as drawn: no sort
@example(n=8, raw=[7, 2, 5, 0])  # unsorted distinct: a sorted copy
@example(n=8, raw=[3, 1, 3])  # unsorted duplicate
@example(n=8, raw=[-1, 2])
@example(n=8, raw=[2, -1])
@example(n=8, raw=[0, 8])
@example(n=8, raw=[8, 0])
@example(n=8, raw=[3, 0, 8])
def test_row_sampling_carrier_matches_sort_unique_reference(n, raw):
    """The carrier keeps an owned, read-only ``np.sort`` of a distinct
    in-range index list, and raises on anything else (duplicates
    first)."""
    distinct = len(set(raw)) == len(raw)
    in_range = all(0 <= i < n for i in raw)
    caller = np.array(raw, dtype=int)
    if not (distinct and in_range):
        with pytest.raises(
            ValueError, match="distinct" if not distinct else "out of range"
        ):
            RowSamplingMatrix(n=n, indices=caller)
        return
    phi = RowSamplingMatrix(n=n, indices=caller)
    assert phi.indices.tolist() == sorted(raw)
    assert caller.tolist() == raw  # the caller's array is not sorted
    caller[:] = n - 1
    assert phi.indices.tolist() == sorted(raw)
    assert not phi.indices.flags.writeable


def test_dense_carrier_owns_a_viewed_matrix():
    """A view's base stays writable by the caller, so the carrier copies
    it; writing the base afterwards leaves the code unchanged."""
    base = np.ones((2, 3))
    code = DenseCodeMatrix(base.view())
    base[0, 0] = 7.0
    assert code.matrix[0, 0] == 1.0
    assert not code.matrix.flags.writeable

"""Both sweep kernels must agree with each other and with the library."""
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswilf import _pykernel
from sswilf.pyramid import canonical_key, pyramidal_sequence

from conftest import symmetric_group

try:
    from sswilf import _ckernel
except ImportError:
    _ckernel = None

BACKENDS = [_pykernel] + ([_ckernel] if _ckernel is not None else [])


@pytest.fixture(params=BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def backend(request):
    return request.param


def _library_tally(n, start, count):
    """sweep_block's answer for a block, computed one permutation at a time
    through the library's pyramid and key."""
    expected = {}
    for rank in range(start, start + count):
        u = tuple(_pykernel.unrank(n, rank))
        key = canonical_key(pyramidal_sequence(u))
        if key not in expected:
            expected[key] = [0, _pykernel.pack_code(u)]
        expected[key][0] += 1
    return expected


def test_key_matches_library(backend):
    for n in range(2, 7):
        for rank in range(factorial(n)):
            assert backend.sweep_block(n, rank, 1) == _library_tally(n, rank, 1)


def test_key_matches_library_random_large(backend):
    rng = random.Random(99)
    for n in (10, 13, 16):
        for _ in range(8):
            count = rng.randint(1, 40)
            start = rng.randrange(factorial(n) - count + 1)
            assert backend.sweep_block(n, start, count) == _library_tally(n, start, count)


def test_sweep_counts_match_direct_grouping(backend):
    for n in range(2, 7):
        expected = {}
        for rank, u in enumerate(symmetric_group(n)):
            key = canonical_key(pyramidal_sequence(u))
            if key not in expected:
                expected[key] = [0, _pykernel.pack_code(u)]
            expected[key][0] += 1
        got = backend.sweep_block(n, 0, factorial(n))
        assert {k: tuple(v) for k, v in got.items()} == {
            k: tuple(v) for k, v in expected.items()
        }


def test_blocks_merge_to_full_sweep(backend):
    n = 6
    total = factorial(n)
    full = backend.sweep_block(n, 0, total)
    merged = {}
    bounds = [0, total // 3, total // 2, total]
    for lo, hi in zip(bounds, bounds[1:]):
        for key, (count, code) in backend.sweep_block(n, lo, hi - lo).items():
            entry = merged.setdefault(key, [0, code])
            if entry[0]:
                entry[0] += count
                entry[1] = min(entry[1], code)
            else:
                entry[:] = [count, code]
    assert {k: tuple(v) for k, v in merged.items()} == {
        k: tuple(v) for k, v in full.items()
    }


def test_every_block_of_s4(backend):
    total = factorial(4)
    for start in range(total + 1):
        for count in range(total - start + 1):
            assert backend.sweep_block(4, start, count) == _library_tally(4, start, count)


def test_unaligned_random_blocks(backend):
    # an odd start is a multiple of no k! with k >= 2, so the walk opens with
    # short runs before it reaches aligned ones
    rng = random.Random(7)
    for n in (7, 8):
        total = factorial(n)
        for _ in range(100):
            count = rng.randint(1, 200)
            start = rng.randrange(1, total - count + 1, 2)
            assert backend.sweep_block(n, start, count) == _library_tally(n, start, count)


def test_empty_blocks(backend):
    for n in (2, 5, 9, 16):
        for start in (0, 1, factorial(n) // 2, factorial(n)):
            assert backend.sweep_block(n, start, 0) == {}


def test_block_ending_at_the_last_permutation(backend):
    for n, count in ((5, 1), (6, 7), (7, 130), (10, 45), (16, 30)):
        start = factorial(n) - count
        assert backend.sweep_block(n, start, count) == _library_tally(n, start, count)


@st.composite
def _blocks(draw):
    n = draw(st.integers(2, 16))
    count = draw(st.integers(1, min(50, factorial(n))))
    start = draw(st.integers(0, factorial(n) - count))
    return n, start, count


@pytest.mark.parametrize("module", BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
@settings(derandomize=True)
@given(block=_blocks())
def test_any_block_matches_library(module, block):
    assert module.sweep_block(*block) == _library_tally(*block)


def test_size_bounds(backend):
    with pytest.raises(ValueError):
        backend.sweep_block(1, 0, 1)
    with pytest.raises(ValueError):
        backend.sweep_block(17, 0, 1)
    with pytest.raises(ValueError):
        backend.sweep_block(5, 100, 100)


@pytest.mark.skipif(_ckernel is None, reason="compiled kernel unavailable")
def test_backends_agree_on_s7():
    assert _ckernel.sweep_block(7, 0, 5040) == _pykernel.sweep_block(7, 0, 5040)


def test_pack_roundtrip():
    rng = random.Random(3)
    for n in (1, 5, 16):
        for _ in range(20):
            u = list(range(1, n + 1))
            rng.shuffle(u)
            u = tuple(u)
            assert _pykernel.unpack_code(_pykernel.pack_code(u), n) == u


def test_pack_preserves_lex_order():
    perms = sorted(symmetric_group(5))
    codes = [_pykernel.pack_code(u) for u in perms]
    assert codes == sorted(codes)


def test_unrank_agrees_with_enumeration():
    for n in (1, 3, 5):
        for rank, u in enumerate(symmetric_group(n)):
            assert tuple(_pykernel.unrank(n, rank)) == u

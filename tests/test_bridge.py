import itertools

import numpy as np
import pytest

from defectlab import bdc, bec, bridge, codes, gf2


def codebook_match_oracle(code, src):
    """Oracle: scan the whole masking codebook for a zero-distortion word."""
    for word in itertools.product([0, 1], repeat=code.n - code.k):
        c = gf2.mat_mul(code.H, np.array(word, dtype=np.uint8))
        determined = src.samples != bridge.FREE
        if np.array_equal(c[determined], src.samples[determined].astype(np.uint8)):
            return True
    return False


def test_all_free_source_maps_to_all_normal():
    src = bridge.BeqSource(np.full(5, bridge.FREE, dtype=np.int8))
    assert bridge.beq_to_bdc(src).num_defects == 0


def test_determined_symbols_become_stuck():
    src = bridge.BeqSource(np.array([0, 1, bridge.FREE], dtype=np.int8))
    pattern = bridge.beq_to_bdc(src)
    assert list(pattern.s) == [0, 1, bdc.NORMAL]
    with pytest.raises(ValueError, match="FREE"):
        bridge.BeqSource([0, 3, bridge.FREE])
    with pytest.raises(ValueError, match="FREE"):
        bridge.BeqSource(np.array([0, 257, bridge.FREE]))  # would wrap to 1


def test_sample_source_rate_within_3_sigma():
    rng = np.random.default_rng(4)
    n, alpha = 10_000, 0.3
    src = bridge.sample_source(n, alpha, rng)
    defects = bridge.beq_to_bdc(src).num_defects
    expect = n * (1 - alpha)
    sigma = (n * alpha * (1 - alpha)) ** 0.5
    assert abs(defects - expect) <= 3 * sigma


def test_quantize_all_free_has_zero_distortion():
    code = codes.two_block(8)
    src = bridge.BeqSource(np.full(8, bridge.FREE, dtype=np.int8))
    _, distortion = bridge.quantize(code, src)
    assert distortion == 0


def test_quantize_existing_codebook_word_is_free():
    code = codes.two_block(8)
    word = gf2.mat_mul(code.H, np.array([1, 0], dtype=np.uint8)).astype(np.int8)
    word[5] = bridge.FREE
    src = bridge.BeqSource(word)
    _, distortion = bridge.quantize(code, src)
    assert distortion == 0


def test_single_determined_symbol_always_quantizes():
    # masking distance 2 covers any single pinned symbol
    code = codes.two_block(8)
    for i in range(8):
        for v in (0, 1):
            samples = np.full(8, bridge.FREE, dtype=np.int8)
            samples[i] = v
            _, distortion = bridge.quantize(code, bridge.BeqSource(samples))
            assert distortion == 0


def test_zero_distortion_exactly_when_codebook_matches():
    code = codes.two_block(8)
    rng = np.random.default_rng(10)
    for _ in range(400):
        src = bridge.sample_source(8, float(rng.uniform(0.2, 0.9)), rng)
        _, distortion = bridge.quantize(code, src)
        assert (distortion == 0) == codebook_match_oracle(code, src)


def test_rate_bookkeeping_identity():
    # A source erased at fraction alpha maps to defects at beta = 1 - alpha;
    # its zero-distortion rate is 1 - alpha, one minus the capacity at beta.
    n = 20
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        erased = round(alpha * n)
        src = bridge.BeqSource([bridge.FREE] * erased + [1] * (n - erased))
        beta = bridge.beq_to_bdc(src).num_defects / n
        assert beta == pytest.approx(1 - alpha)
        assert bec.capacity(alpha) == pytest.approx(1 - bec.capacity(beta))


def test_wom_state_maps_ones_to_stuck():
    state = bridge.WomState(np.array([1, 0, 1], dtype=np.uint8))
    pattern = bridge.wom_to_defects(state)
    assert list(pattern.s) == [1, bdc.NORMAL, 1]
    assert pattern.num_defects == int(state.cells.sum())


def test_wom_write_on_fresh_memory():
    code = codes.two_block(8)
    state = bridge.WomState(np.zeros(8, dtype=np.uint8))
    for bits in itertools.product([0, 1], repeat=6):
        msg = np.array(bits, dtype=np.uint8)
        new_state, ok = bridge.wom_write(code, state, msg)
        assert ok
        assert np.array_equal(bdc.decode(code, new_state.cells), msg)


def test_wom_write_single_one_always_succeeds():
    # all-ones masking column: complement rescues any single stored 1
    for n in range(4, 9):
        code = codes.single_parity(n)
        for i in range(n):
            cells = np.zeros(n, dtype=np.uint8)
            cells[i] = 1
            for bits in itertools.product([0, 1], repeat=n - 1):
                state, ok = bridge.wom_write(code, bridge.WomState(cells),
                                             np.array(bits, dtype=np.uint8))
                assert ok
                assert state.cells[i] == 1


def test_wom_write_monotone_and_failure_keeps_state():
    code = codes.two_block(8)
    rng = np.random.default_rng(21)
    for _ in range(300):
        cells = (rng.random(8) < 0.5).astype(np.uint8)
        state = bridge.WomState(cells)
        msg = rng.integers(0, 2, 6, dtype=np.uint8)
        new_state, ok = bridge.wom_write(code, state, msg)
        if ok:
            assert np.all(new_state.cells >= cells)
            assert np.array_equal(bdc.decode(code, new_state.cells), msg)
        else:
            assert new_state is state

"""The packed solve kernels and the channel simulators built on them.

The Monte Carlo simulators draw their samples in bulk and read every trial's
outcome off one batched elimination, `gf2.pivot_columns`.  The public decoder
and encoder solve one instance at a time with `gf2.solve_packed`, so replaying
the bulk draws through map_decode_generator and additive_encode is an
independent route: it must reproduce the simulators' failure counts and leave
the random stream in the same state.
"""

import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab import bdc, bec, codes, gf2

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None, database=None)

ROSTER = [
    (codes.hamming(3), 0.3),
    (codes.bch(4, 2), 0.35),
    (codes.two_block(8), 0.4),
    (codes.reed_muller(1, 4), 0.45),
    (codes.repetition(5), 0.5),
    (codes.single_parity(6), 0.2),
]

#: (family, params, p, trials, seed, decoding failures, masking failures),
#: recorded from the simulators as they stood before they shared the kernels.
GOLDEN = [
    ("hamming", (3,), 0.3, 2000, 0, 174, 192),
    ("bch", (4, 2), 0.35, 2000, 1, 116, 122),
    ("two_block", (8,), 0.4, 2000, 2, 1045, 1090),
    ("reed_muller", (1, 4), 0.45, 2000, 3, 53, 52),
    ("repetition", (5,), 0.5, 2000, 4, 30, 40),
    ("single_parity", (6,), 0.2, 2000, 5, 425, 407),
    ("hamming", (4,), 0.2, 2000, 6, 315, 307),
    ("repetition", (3,), 0.5, 70000, 7, 4296, 4320),  # crosses a chunk boundary
]


def replay_decoding(code, alpha, trials, rng):
    """_mc_decode_failures's draws, decoded one trial at a time by the public decoder."""
    messages = rng.integers(0, 2, (trials, code.k), dtype=np.uint8)
    erased = rng.random((trials, code.n)) < alpha
    failures = 0
    for message, mask in zip(messages, erased):
        obs = bec.erase(gf2.mat_mul(code.G, message), np.flatnonzero(mask))
        failures += not bec.map_decode_generator(code, obs, message, rng).success
    return failures


def replay_masking(code, beta, trials, rng):
    """_mc_masking_failures's draws, encoded one trial at a time by the public encoder."""
    messages = rng.integers(0, 2, (trials, code.k), dtype=np.uint8)
    defects = rng.random((trials, code.n)) < beta
    stuck = rng.integers(0, 2, (trials, code.n), dtype=np.uint8)
    failures = 0
    for message, mask, values in zip(messages, defects, stuck):
        pattern = bdc.DefectPattern(np.where(mask, values.astype(np.int8), np.int8(bdc.NORMAL)))
        failures += not bdc.additive_encode(code, message, pattern).success
    return failures


@pytest.mark.parametrize("code,p", ROSTER, ids=lambda x: getattr(x, "name", str(x)))
def test_decoding_simulator_matches_the_public_decoder_trial_for_trial(code, p):
    fast, slow = np.random.default_rng(11), np.random.default_rng(11)
    assert bec._mc_decode_failures(code, p, 300, fast) == replay_decoding(code, p, 300, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("code,p", ROSTER, ids=lambda x: getattr(x, "name", str(x)))
def test_masking_simulator_matches_the_public_encoder_trial_for_trial(code, p):
    fast, slow = np.random.default_rng(12), np.random.default_rng(12)
    assert bdc._mc_masking_failures(code, p, 300, fast) == replay_masking(code, p, 300, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("family,params,p,trials,seed,decoding,masking", GOLDEN)
def test_seeded_failure_counts_are_unchanged(family, params, p, trials, seed, decoding, masking):
    """An int, its SeedSequence and a fresh Generator from it pick the same stream."""
    code = getattr(codes, family)(*params)
    for source in (lambda: seed, lambda: np.random.SeedSequence(seed),
                   lambda: np.random.default_rng(seed)):
        assert bec.failure_prob(code, p, "monte_carlo", trials=trials,
                                seed=source()).failures == decoding
        assert bdc.enc_failure_prob(code, p, "monte_carlo", trials=trials,
                                    seed=source()).failures == masking


def test_monte_carlo_rejects_bad_inputs_on_both_sides():
    code = codes.hamming(3)
    for estimate, name in ((bec.failure_prob, "alpha"), (bdc.enc_failure_prob, "beta")):
        with pytest.raises(ValueError, match=name):
            estimate(code, 1.5, "monte_carlo")
        with pytest.raises(ValueError, match="mode"):
            estimate(code, 0.1, "sampled")
        with pytest.raises(ValueError, match="trials"):
            estimate(code, 0.1, "monte_carlo", trials=0)


@st.composite
def masked_systems(draw):
    """Up to 8 equations in up to 6 unknowns, a right-hand side, and a row mask."""
    ncols = draw(st.integers(0, 6))
    m = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=m, max_size=m))
    rhs = draw(st.integers(0, (1 << m) - 1))
    use = draw(st.integers(0, (1 << m) - 1))
    return rows, ncols, rhs, use


def parity(x):
    return x.bit_count() & 1


@PROPERTIES
@given(masked_systems())
def test_masked_solve_matches_brute_force(system):
    rows, ncols, rhs, use = system
    # Keep each picked equation, in index order, unless it contradicts those kept.
    survivors = set(range(1 << ncols))
    violated = []
    for i, row in enumerate(rows):
        if not (use >> i) & 1:
            continue
        agree = {x for x in survivors if parity(row & x) == (rhs >> i) & 1}
        if agree:
            survivors = agree
        else:
            violated.append(i)

    sol = gf2.solve_packed(rows, ncols, rhs, use)
    assert sol.consistent == (not violated)
    assert sol.violated == violated
    assert sol.particular in survivors
    missed = [i for i, row in enumerate(rows)
              if (use >> i) & 1 and parity(row & sol.particular) != (rhs >> i) & 1]
    assert missed == sol.violated
    assert sol.rank + len(sol.basis) == ncols
    span = {0}
    for vec in sol.basis:
        span |= {x ^ vec for x in span}
    assert len(span) == 1 << len(sol.basis)
    assert {sol.particular ^ x for x in span} == survivors


@st.composite
def batched_systems(draw):
    """Up to 10 rows of 0 to 130 columns, some of them sums of earlier rows so
    that systems can be inconsistent, and up to 200 systems' row masks and
    right-hand sides: counts that cross one or two 64-system lanes, and ones
    that are not a multiple of 64."""
    width = draw(st.one_of(st.integers(0, 8), st.integers(9, 130)))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if rows and draw(st.booleans()):
            pick = draw(st.integers(1, (1 << len(rows)) - 1))
            rows.append(reduce(xor, (row for i, row in enumerate(rows) if (pick >> i) & 1)))
        else:
            rows.append(draw(st.integers(0, (1 << width) - 1)))
    trials = draw(st.one_of(st.integers(0, 8), st.integers(9, 200)))
    masks = st.lists(st.integers(0, (1 << len(rows)) - 1), min_size=trials, max_size=trials)
    return rows, width, draw(masks), draw(masks)


def bool_rows(masks, m):
    rows = [[(x >> i) & 1 for i in range(m)] for x in masks]
    return np.array(rows, dtype=bool).reshape(len(masks), m)


@PROPERTIES
@given(batched_systems())
def test_pivot_columns_are_the_pivots_of_each_solve(system):
    """Per system, against solve_packed, with blocks of 1 lane, of 2 lanes
    and of the default size."""
    rows, width, use, rhs = system
    lane_words = max(1, len(rows)) * (width + 1)  # words per lane of a block
    for lanes in (1, 2, None):
        with pytest.MonkeyPatch.context() as patch:
            if lanes:
                patch.setattr(gf2, "SPAN_BLOCK", Fraction(lanes * lane_words, 8))
            pivots = gf2.pivot_columns(rows, width, bool_rows(use, len(rows)),
                                       bool_rows(rhs, len(rows)))
        assert pivots.shape == (len(use), width + 1) and pivots.dtype == bool
        for found, u, r in zip(pivots, use, rhs):
            sol = gf2.solve_packed(rows, width, r, u)
            assert set(np.flatnonzero(found[:width]).tolist()) == set(sol.pivots)
            assert found[width] == (not sol.consistent)


def test_pivot_columns_temporaries_are_bounded():
    """One call on hamming(7)'s G rows (127 x 120) for 20,000 systems holds
    at most one T x 127 byte copy of an input, a T x 121 byte result and four
    blocks of 8 SPAN_BLOCK uint64 words: 7.1 MB.  All 20,000 systems at once
    would take 38 MB."""
    code = codes.hamming(7)
    rng = np.random.default_rng(3)
    trials, n, width = 20_000, code.n, code.k
    use, rhs = rng.random((trials, n)) < 0.7, rng.random((trials, n)) < 0.5
    tracemalloc.start()
    try:
        gf2.pivot_columns(code.g_rows_packed, width, use, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trials * (n + width + 1) + 4 * 8 * (8 * gf2.SPAN_BLOCK)


def test_solve_without_a_mask_uses_every_row():
    rows, rhs = [0b011, 0b110, 0b101], 0b011
    full = gf2.solve_packed(rows, 3, rhs)
    masked = gf2.solve_packed(rows, 3, rhs, 0b111)
    assert (full.particular, full.violated, full.basis) == (masked.particular, masked.violated,
                                                            masked.basis)


def test_masked_rows_read_the_rhs_at_their_own_index():
    # Only row 2 (x1 = bit 2 of rhs) is used; rhs bits of unused rows are ignored.
    sol = gf2.solve_packed([0b01, 0b01, 0b10], 2, 0b100, 0b100)
    assert sol.consistent and sol.particular == 0b10 and sol.basis == [0b01]


def test_precedes_reads_column_zero_first():
    assert gf2.precedes(0b10, 0b01)
    assert not gf2.precedes(0b01, 0b10)
    assert not gf2.precedes(0b11, 0b11)
    assert gf2.precedes(0b0110, 0b0111)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.data())
def test_span_row_i_sums_the_generators_at_the_bits_of_i(data):
    """Against a Python-int walk, with blocks of 1 to 16 rows joined, over up
    to three uint64 words per row; a code on these generators gets the same
    weight distribution from many blocks as from one."""
    n = data.draw(st.one_of(st.integers(1, 10), st.integers(11, 140)), label="n")
    count = data.draw(st.integers(0, 6), label="generators")
    block = 1 << data.draw(st.integers(0, 4), label="log2 block")
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * count, max_size=n * count),
                              label="bits"), dtype=np.uint8).reshape(count, n)
    generators = [sum(int(b) << j for j, b in enumerate(row)) for row in bits]
    walk = []
    for i in range(1 << count):
        word = 0
        for j, generator in enumerate(generators):
            if (i >> j) & 1:
                word ^= generator
        walk.append(word)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2, "SPAN_BLOCK", block)
        blocks = list(gf2.span_words(bits))
        many = None
        if count <= n and gf2.rank(bits) == count:
            many = codes.LinearCode(bits.T).weight_distribution()
    assert all(len(rows) <= block for rows in blocks)
    rows = np.concatenate(blocks)
    assert rows.dtype == np.uint64 and rows.shape == (1 << count, -(-n // 64))
    assert [sum(int(b) << j for j, b in enumerate(row)) for row in gf2.unpack_words(rows, n)] == walk
    if many is not None:
        code = codes.LinearCode(bits.T)
        assert many == code.weight_distribution()
        if code.k <= code.n - code.k:  # the side the distribution enumerates
            assert many == tuple(np.bincount([w.bit_count() for w in walk], minlength=n + 1))

"""Batch entry points against the single-instance calls and an independent oracle.

Every batch row must give what the single call gives on that row, and the
rewrite batch must also match the Python-int scan in `rewrite_oracle`, which
walks the masking words itself and shares no code with the batch kernel.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectlab import bdc, bridge, codes, gf2, lwc
from defectlab.errors import ConstructionError, MaskingError
from rewrite_oracle import masking_words_oracle, rewrite_update_oracle

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def random_code(data) -> codes.LinearCode:
    n = data.draw(st.integers(2, 12), label="n")
    width = data.draw(st.integers(1, n - 1), label="n-k")
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * width, max_size=n * width), label="H")
    try:
        return codes.LinearCode.from_parity(np.array(bits, dtype=np.uint8).reshape(n, width))
    except ConstructionError:
        assume(False)


def draw_rows(code, rng, rows, max_defects=1):
    """Random messages, new messages and defect states with at most
    `max_defects` stuck cells per row."""
    n, k = code.n, code.k
    old = rng.integers(0, 2, (rows, k), dtype=np.uint8)
    new = rng.integers(0, 2, (rows, k), dtype=np.uint8)
    states = np.full((rows, n), bdc.NORMAL, dtype=np.int8)
    for t in range(rows):
        cells = rng.choice(n, size=rng.integers(0, max_defects + 1), replace=False)
        states[t, cells] = rng.integers(0, 2, len(cells))
    return old, new, states


def oracle_or_error(code, stored, old, new, state):
    try:
        return rewrite_update_oracle(code, stored, old, new, bdc.DefectPattern(state))
    except MaskingError as exc:
        return exc


def assert_rewrites_match(code, old, new, states):
    """Batch == oracle == one-row calls on every row whose first write masks
    its stuck cell; rows whose coset cannot match it raise alike."""
    first = bdc.additive_encode_batch(code, old, states)
    keep = first.success
    stored, old, new, states = first.codewords[keep], old[keep], new[keep], states[keep]
    expected = [oracle_or_error(code, *row) for row in zip(stored, old, new, states)]
    for row, want in zip(zip(stored, old, new, states), expected):
        if isinstance(want, MaskingError):
            with pytest.raises(MaskingError, match=str(want)):
                lwc.rewrite_update(code, *row[:3], bdc.DefectPattern(row[3]))
            continue
        word, report = lwc.rewrite_update(code, *row[:3], bdc.DefectPattern(row[3]))
        assert (word.tolist(), report.initial_cost, report.rewrite_cost) == \
            (want[0].tolist(), want[1], want[2])
    ok = np.array([not isinstance(want, MaskingError) for want in expected], dtype=bool)
    words, initial, rewrite = lwc.rewrite_update_batch(code, stored[ok], old[ok], new[ok],
                                                       states[ok])
    want = [w for w, good in zip(expected, ok) if good]
    assert words.tolist() == [w[0].tolist() for w in want]
    assert initial.tolist() == [w[1] for w in want]
    assert rewrite.tolist() == [w[2] for w in want]
    if not ok.all():
        with pytest.raises(MaskingError, match="no word of the new message's coset"):
            lwc.rewrite_update_batch(code, stored, old, new, states)
    return int(ok.sum())


@PROPERTIES
@given(st.data())
def test_rewrite_batch_matches_oracle_and_single_calls(data):
    code = random_code(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    assert_rewrites_match(code, *draw_rows(code, rng, 12))


@PROPERTIES
@given(st.data())
def test_encoder_batches_match_single_calls(data):
    code = random_code(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    messages, _, states = draw_rows(code, rng, 10, max_defects=code.n)
    for batch, single in ((bdc.additive_encode_batch, bdc.additive_encode),
                          (bdc.binning_encode_batch, bdc.binning_encode)):
        out = batch(code, messages, states)
        for t, (message, state) in enumerate(zip(messages, states)):
            want = single(code, message, bdc.DefectPattern(state))
            got = out.outcome(t)
            assert (got.codeword.tolist(), got.parity.tolist(), got.success, got.residual_errors) \
                == (want.codeword.tolist(), want.parity.tolist(), want.success, want.residual_errors)
    words = bdc.additive_encode_batch(code, messages, states).codewords
    assert bdc.decode_batch(code, words).tolist() == [bdc.decode(code, w).tolist() for w in words]


@pytest.mark.parametrize("code", [codes.single_parity(6), codes.two_block(8), codes.repetition(5),
                                  codes.reed_muller(1, 4), codes.two_block(4)],
                         ids=lambda c: c.name)
def test_tie_heavy_codes_break_ties_like_the_oracle(code):
    rng = np.random.default_rng(3)
    old, new, states = draw_rows(code, rng, 300)
    assert assert_rewrites_match(code, old, new, states) > 0
    # the tie-break is exercised: some row has several cheapest candidates
    first = bdc.additive_encode_batch(code, old, states)
    words = gf2.unpack_words(code.masking_words(), code.n)
    tied_rows = 0
    for stored, message, state in zip(first.codewords, new, states):
        cands = code.embed(message) ^ words
        legal = ((cands != state) & (state != bdc.NORMAL)).sum(axis=1) == 0
        costs = (cands != stored).sum(axis=1)[legal]
        tied_rows += (costs == costs.min()).sum() > 1
    assert tied_rows > 0


def test_blocklength_beyond_one_word():
    code = codes.hamming(7)  # n = 127: two words per row, 128 masking words
    assert code.masking_words().shape == (128, 2)
    rng = np.random.default_rng(4)
    assert assert_rewrites_match(code, *draw_rows(code, rng, 20)) == 20


def test_tie_decided_in_the_second_word():
    # Two groups of 66 cells: the masking word of the second group lies past
    # column 63, so a tie between it and the zero word is decided by word 1.
    code = codes.lrc_pyramid(132, 2)
    info = code.info_positions
    old = np.zeros((1, code.k), dtype=np.uint8)
    new = old.copy()
    second = [j for j, i in enumerate(info) if i >= 66][:33]
    new[0, second] = 1  # 33 of the 66 cells of the second group change
    states = np.full((1, code.n), bdc.NORMAL, dtype=np.int8)
    assert assert_rewrites_match(code, old, new, states) == 1
    words, _, rewrite = lwc.rewrite_update_batch(code, code.embed(old), old, new, states)
    assert rewrite[0] == 33
    plain = code.embed(new)[0]
    assert words[0].tolist() == min(plain.tolist(), (plain ^ (np.arange(132) >= 66)).tolist())


def test_chunking_does_not_change_the_result(monkeypatch):
    code = codes.bch(4, 2)
    rng = np.random.default_rng(5)
    old, new, states = draw_rows(code, rng, 50)
    stored = bdc.additive_encode_batch(code, old, states).codewords
    whole = lwc.rewrite_update_batch(code, stored, old, new, states)
    monkeypatch.setattr(gf2, "SPAN_BLOCK", 1)  # one row per step
    parts = lwc.rewrite_update_batch(code, stored, old, new, states)
    assert all(np.array_equal(a, b) for a, b in zip(whole, parts))


def bad_row(code, name):
    """(stored, message, new message, state) of a row that breaks one
    precondition of rewrite_update."""
    message = np.zeros(code.k, dtype=np.uint8)
    stored = code.embed(message)
    state = np.full(code.n, bdc.NORMAL, dtype=np.int8)
    if name == "two stuck cells":
        state[[0, 1]] = 0
    elif name == "wrong message":
        stored[code.info_positions[0]] ^= 1
    else:  # "unmasked cell"
        state[0] = 1
    return stored, message, message, state


@pytest.mark.parametrize("name", ["two stuck cells", "wrong message", "unmasked cell"])
def test_a_bad_row_raises_like_the_single_call(name):
    code = codes.two_block(8)
    stored, message, new, state = bad_row(code, name)
    with pytest.raises(Exception) as single:
        lwc.rewrite_update(code, stored, message, new, bdc.DefectPattern(state))
    good = bdc.additive_encode(code, message, bdc.DefectPattern.all_normal(8)).codeword
    rows = [(good, message, message, np.full(8, bdc.NORMAL, dtype=np.int8))] * 3
    rows.insert(2, (stored, message, new, state))
    with pytest.raises(Exception) as batch:
        lwc.rewrite_update_batch(code, *(np.stack(col) for col in zip(*rows)))
    assert (type(batch.value), str(batch.value)) == (type(single.value), str(single.value))


def test_uncovered_cell_raises_masking_error_in_both_forms():
    # coordinate 2 lies outside every masking word, so its bit cannot change
    code = codes.LinearCode.from_parity(np.array([[1], [1], [0]], dtype=np.uint8))
    position = code.info_positions.index(2)
    message = np.zeros(code.k, dtype=np.uint8)
    new = message.copy()
    new[position] = 1
    state = np.array([bdc.NORMAL, bdc.NORMAL, 0], dtype=np.int8)
    stored = code.embed(message)
    with pytest.raises(MaskingError) as single:
        lwc.rewrite_update(code, stored, message, new, bdc.DefectPattern(state))
    with pytest.raises(MaskingError) as batch:
        lwc.rewrite_update_batch(code, stored[None], message[None], new[None], state[None])
    assert str(batch.value) == str(single.value)


def test_batch_shapes_are_checked():
    code = codes.two_block(8)
    messages = np.zeros((2, code.k), dtype=np.uint8)
    states = np.full((2, code.n), bdc.NORMAL, dtype=np.int8)
    with pytest.raises(ValueError, match="expected rows of length 6"):
        bdc.additive_encode_batch(code, messages[:, :5], states)
    with pytest.raises(ValueError, match=r"expected 2 x 8, got shape \(3, 8\)"):
        bdc.binning_encode_batch(code, messages, np.vstack([states, states[:1]]))
    with pytest.raises(ValueError, match="entries must be 0, 1, or NORMAL"):
        bdc.additive_encode_batch(code, messages, states - 1)
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        bdc.decode_batch(code, np.full((1, 8), 2))
    short = bdc.DefectPattern.all_normal(1)  # would broadcast against a row of 8
    with pytest.raises(ValueError, match="state length 1 != blocklength 8"):
        lwc.rewrite_update(code, code.embed(messages[0]), messages[0], messages[0], short)


def test_bridge_batches_match_single_calls():
    code = codes.two_block(10)
    rng = np.random.default_rng(6)
    sources = [bridge.sample_source(code.n, 0.5, rng) for _ in range(40)]
    words, distortions = bridge.quantize_batch(code, np.stack([s.samples for s in sources]))
    for src, word, distortion in zip(sources, words, distortions):
        assert (lambda w, d: (w.tolist(), d))(*bridge.quantize(code, src)) == \
            (word.tolist(), int(distortion))
    cells = (rng.random((40, code.n)) < 0.4).astype(np.uint8)
    messages = rng.integers(0, 2, (40, code.k), dtype=np.uint8)
    new_cells, ok = bridge.wom_write_batch(code, cells, messages)
    assert 0 < ok.sum() < 40
    for row, message, new, written in zip(cells, messages, new_cells, ok):
        state = bridge.WomState(row)
        single, single_ok = bridge.wom_write(code, state, message)
        assert (single.cells.tolist(), single_ok) == (new.tolist(), bool(written))
        assert written or single is state


def test_masking_words_are_built_once_and_read_the_cap(monkeypatch):
    code = codes.bch(4, 2)
    words = code.masking_words()
    assert code.masking_words() is words and not words.flags.writeable
    walk = masking_words_oracle(code)
    assert gf2.pack_rows(gf2.unpack_words(words, code.n)) == walk
    assert lwc.masking_codeword_ints(code) == walk
    monkeypatch.setattr(codes, "ENUM_CAP", 7)
    with pytest.raises(codes.CapacityError, match="n-k=8 exceeds enumeration cap ENUM_CAP = 7"):
        code.masking_words()


@pytest.mark.parametrize("n", [0, 1, 8, 63, 64, 65, 127, 130])
def test_word_layout_round_trips_and_orders_like_precedes(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, (6, n), dtype=np.uint8)
    words = gf2.pack_words(bits)
    assert words.dtype == np.uint64 and words.shape == (6, max(1, -(-n // 64)))
    assert np.array_equal(gf2.unpack_words(words, n), bits)
    assert np.array_equal(gf2.unpack_rows(gf2.pack_rows(bits), n), bits)
    assert np.bitwise_count(words).sum(axis=1).tolist() == bits.sum(axis=1).tolist()
    ints = gf2.pack_rows(bits)
    for a, b in itertools.product(range(6), repeat=2):
        assert gf2.precedes(ints[a], ints[b]) == (words[a].tolist() < words[b].tolist())

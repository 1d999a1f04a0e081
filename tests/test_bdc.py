import itertools
from fractions import Fraction

import numpy as np
import pytest

from defectlab import bdc, bec, bridge, codes, gf2
from defectlab.errors import CapacityError


def all_patterns(n, sizes=None):
    """Every defect pattern (locations and stuck values) of the given sizes."""
    sizes = range(n + 1) if sizes is None else sizes
    for u in sizes:
        for locs in itertools.combinations(range(n), u):
            for vals in itertools.product([0, 1], repeat=u):
                yield bdc.DefectPattern.from_stuck(n, dict(zip(locs, vals)))


def maskable_oracle(code, message, pattern):
    """Oracle: search every masking word for one that matches the stuck cells."""
    base = code.embed(message)
    for word in itertools.product([0, 1], repeat=code.n - code.k):
        c = base ^ gf2.mat_mul(code.H, np.array(word, dtype=np.uint8))
        if bdc.error_count(c, pattern) == 0:
            return True
    return False


def test_apply_channel_identity_when_normal():
    pattern = bdc.DefectPattern.all_normal(4)
    x = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(bdc.apply_channel(x, pattern), x)


def test_apply_channel_forces_stuck_values():
    pattern = bdc.DefectPattern(np.array([0, bdc.NORMAL], dtype=np.int8))
    y = bdc.apply_channel([1, 1], pattern)
    assert list(y) == [0, 1]
    assert bdc.error_count([1, 1], pattern) == 1


def test_apply_channel_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pattern = bdc.sample_defects(9, 0.4, rng)
        x = rng.integers(0, 2, 9, dtype=np.uint8)
        once = bdc.apply_channel(x, pattern)
        assert np.array_equal(bdc.apply_channel(once, pattern), once)


def test_sample_defects_extremes():
    rng = np.random.default_rng(1)
    assert bdc.sample_defects(6, 0.0, rng).num_defects == 0
    assert bdc.sample_defects(6, 1.0, rng).num_defects == 6
    with pytest.raises(ValueError):
        bdc.sample_defects(6, -0.1, rng)


def test_sample_defects_rates_within_3_sigma():
    rng = np.random.default_rng(7)
    n, beta = 10_000, 0.1
    pattern = bdc.sample_defects(n, beta, rng)
    u = pattern.num_defects
    sigma_u = (n * beta * (1 - beta)) ** 0.5
    assert abs(u - n * beta) <= 3 * sigma_u
    ones = int((pattern.s == 1).sum())
    sigma_v = (u * 0.25) ** 0.5
    assert abs(ones - u / 2) <= 3 * sigma_v


def test_additive_encode_no_defects_uses_zero_parity():
    code = codes.two_block(8)
    msg = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    out = bdc.additive_encode(code, msg, bdc.DefectPattern.all_normal(8))
    assert out.success
    assert not out.parity.any()
    assert np.array_equal(out.codeword, code.embed(msg))


def test_single_defect_scheme_flips_to_complement():
    # all-ones masking column: a conflicting stuck parity cell complements everything
    code = codes.single_parity(5)
    pattern = bdc.DefectPattern.from_stuck(5, {4: 1})
    for bits in itertools.product([0, 1], repeat=4):
        msg = np.array(bits, dtype=np.uint8)
        out = bdc.additive_encode(code, msg, pattern)
        assert out.success
        assert list(out.parity) == [1]
        assert np.array_equal(out.codeword, 1 - code.embed(msg))
        assert np.array_equal(bdc.decode(code, out.codeword), msg)


def test_hamming_masks_any_two_defects():
    code = codes.hamming(3)  # masking distance 3
    msg = np.array([1, 1, 0, 0], dtype=np.uint8)
    for pattern in all_patterns(7, sizes=[0, 1, 2]):
        out = bdc.additive_encode(code, msg, pattern)
        assert out.success
        assert bdc.error_count(out.codeword, pattern) == 0


def test_additive_failure_reports_residual():
    # two stuck cells inside one parity group cannot both be matched when they disagree
    code = codes.two_block(8)
    msg = np.zeros(6, dtype=np.uint8)
    pattern = bdc.DefectPattern.from_stuck(8, {0: 1, 1: 0, 2: 0, 3: 0})
    out = bdc.additive_encode(code, msg, pattern)
    assert not out.success
    assert out.residual_errors == bdc.error_count(out.codeword, pattern) > 0


def test_additive_outcome_always_in_message_coset():
    code = codes.two_block(8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        msg = rng.integers(0, 2, 6, dtype=np.uint8)
        pattern = bdc.sample_defects(8, 0.5, rng)
        out = bdc.additive_encode(code, msg, pattern)
        assert np.array_equal(bdc.decode(code, out.codeword), msg)
        rebuilt = code.embed(msg) ^ gf2.mat_mul(code.H, out.parity)
        assert np.array_equal(rebuilt, out.codeword)


def test_mde_matches_additive_success():
    code = codes.two_block(8)
    for pattern in all_patterns(8, sizes=[0, 1, 2, 3]):
        msg = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
        a = bdc.additive_encode(code, msg, pattern)
        m = bdc.mde_encode(code, msg, pattern)
        assert a.success == m.success
        if a.success:
            assert m.residual_errors == 0


def test_mde_tie_breaks_toward_zero_parity():
    code = codes.single_parity(4)
    msg = np.zeros(3, dtype=np.uint8)
    pattern = bdc.DefectPattern.from_stuck(4, {0: 0, 1: 1})
    out = bdc.mde_encode(code, msg, pattern)
    assert out.residual_errors == 1
    assert not out.success
    assert list(out.parity) == [0]


def test_mde_finds_global_minimum():
    for code in [codes.two_block(8), codes.bch(4, 2)]:
        # itertools.product lists the parities in lexicographic order, so the
        # first cheapest one is the tie-break's pick.
        parities = np.array(list(itertools.product([0, 1], repeat=code.n - code.k)), dtype=np.uint8)
        rng = np.random.default_rng(13)
        for _ in range(60):
            msg = rng.integers(0, 2, code.k, dtype=np.uint8)
            pattern = bdc.sample_defects(code.n, 0.6, rng)
            out = bdc.mde_encode(code, msg, pattern)
            words = code.embed(msg) ^ gf2.mat_mul(parities, code.H.T)
            pinned = pattern.s != bdc.NORMAL
            residuals = ((words != pattern.s) & pinned).sum(axis=1)
            assert out.residual_errors == residuals.min()
            assert out.parity.tolist() == parities[residuals.argmin()].tolist()


def test_mde_cap(monkeypatch):
    monkeypatch.setattr(bdc, "MDE_CAP", 2)
    with pytest.raises(CapacityError, match="n-k=3 exceeds the exhaustive parity cap MDE_CAP = 2"):
        bdc.mde_encode(codes.hamming(3), np.zeros(4, dtype=np.uint8),
                       bdc.DefectPattern.all_normal(7))


def test_binning_success_set_matches_additive_exhaustively():
    code = codes.two_block(4)
    for msg_bits in itertools.product([0, 1], repeat=2):
        msg = np.array(msg_bits, dtype=np.uint8)
        for pattern in all_patterns(4):
            a = bdc.additive_encode(code, msg, pattern)
            b = bdc.binning_encode(code, msg, pattern)
            assert a.success == b.success
            if b.success:
                assert bdc.error_count(b.codeword, pattern) == 0
                assert np.array_equal(bdc.decode(code, b.codeword), msg)


def test_binning_matches_additive_on_hamming_samples():
    code = codes.hamming(3)
    rng = np.random.default_rng(17)
    for _ in range(300):
        msg = rng.integers(0, 2, 4, dtype=np.uint8)
        pattern = bdc.sample_defects(7, 0.4, rng)
        a = bdc.additive_encode(code, msg, pattern)
        b = bdc.binning_encode(code, msg, pattern)
        assert a.success == b.success
        assert np.array_equal(bdc.decode(code, b.codeword), msg)
        rebuilt = code.embed(msg) ^ gf2.mat_mul(code.H, b.parity)
        assert np.array_equal(rebuilt, b.codeword)


def test_binning_all_cells_stuck():
    code = codes.two_block(4)
    stuck = bdc.DefectPattern(np.array([1, 0, 0, 0], dtype=np.int8))
    # group parity of cells 0..1 is odd: no codeword of the zero-message coset fits
    out = bdc.binning_encode(code, np.zeros(2, dtype=np.uint8), stuck)
    assert not out.success


def test_decode_roundtrip_exhaustive_two_block():
    code = codes.two_block(8)
    rng = np.random.default_rng(23)
    for pattern in all_patterns(8, sizes=[0, 1]):
        msg = rng.integers(0, 2, 6, dtype=np.uint8)
        out = bdc.additive_encode(code, msg, pattern)
        assert out.success  # masking distance 2 covers one defect
        readback = bdc.apply_channel(out.codeword, pattern)
        assert np.array_equal(bdc.decode(code, readback), msg)


def test_decode_plain_embedding():
    code = codes.two_block(8)
    msg = np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(bdc.decode(code, code.embed(msg)), msg)


def test_conditional_encfail_full_rank_is_zero():
    code = codes.hamming(3)
    assert bdc.conditional_encfail_exact(code, [0, 1]) == 0


def test_conditional_encfail_matches_stuck_enumeration():
    code = codes.hamming(3)
    msg = np.array([1, 0, 1, 0], dtype=np.uint8)
    for u in range(5):
        for locs in itertools.combinations(range(7), u):
            fails = 0
            for vals in itertools.product([0, 1], repeat=u):
                pattern = bdc.DefectPattern.from_stuck(7, dict(zip(locs, vals)))
                if not bdc.additive_encode(code, msg, pattern).success:
                    fails += 1
            expected = Fraction(fails, 2 ** u)
            assert bdc.conditional_encfail_exact(code, locs) == expected


def test_conditional_encfail_hamming_four_defects():
    code = codes.hamming(3)
    for locs in itertools.combinations(range(7), 4):
        assert bdc.conditional_encfail_exact(code, locs) == Fraction(1, 2)


def test_enc_failure_bound_mirrors_erasure_side():
    wd = codes.hamming(3).weight_distribution()  # dual of the masking code
    assert bdc.enc_failure_bound(7, 2, 3, wd).regime == "zero"
    assert bdc.enc_failure_bound(7, 3, 3, wd).value == Fraction(1, 10)
    assert bdc.enc_failure_bound(7, 4, 3, wd).value == Fraction(1, 2)


def test_enc_failure_prob_beta_zero():
    assert bdc.enc_failure_prob(codes.two_block(8), 0).exact == 0


def test_duality_of_exhaustive_failure_probabilities():
    # same code object drives both channels: H doubles as the masking generator
    for code in [codes.hamming(3), codes.two_block(8), codes.repetition(4)]:
        p_dec = bec.failure_prob(code, "0.1", "exhaustive").exact
        p_enc = bdc.enc_failure_prob(code, "0.1", "exhaustive").exact
        assert p_dec == p_enc


def test_conditional_duality_pattern_by_pattern():
    for code in [codes.hamming(3), codes.two_block(8), codes.reed_muller(1, 3)]:
        for e in range(code.n + 1):
            for pattern in itertools.combinations(range(code.n), e):
                assert (bec.conditional_failure_exact(code, pattern)
                        == bdc.conditional_encfail_exact(code, pattern))


def test_enc_monte_carlo_tracks_exhaustive():
    code = codes.two_block(8)
    exact = float(bdc.enc_failure_prob(code, 0.1, "exhaustive").exact)
    est = bdc.enc_failure_prob(code, 0.1, "monte_carlo", trials=20_000, seed=3)
    sigma = max(est.std_error, 1e-12)
    assert abs(est.value - exact) <= 4 * sigma


def test_masking_guarantee_below_distance():
    for code in [codes.hamming(3), codes.two_block(8), codes.repetition(5),
                 codes.single_parity(6), codes.reed_muller(1, 3)]:
        d_star = code.min_distance()
        msg = np.zeros(code.k, dtype=np.uint8)
        msg[0] = 1
        for pattern in all_patterns(code.n, sizes=range(d_star)):
            assert bdc.additive_encode(code, msg, pattern).success


def test_exhaustive_cap_enforced():
    with pytest.raises(CapacityError):
        bdc.enc_failure_prob(codes.bch(5, 1), 0.1, "exhaustive")


def test_repeated_defect_indices_are_rejected():
    assert bdc.conditional_encfail_exact(codes.hamming(3), [2]) == 0
    with pytest.raises(ValueError, match="repeated"):
        bdc.conditional_encfail_exact(codes.hamming(3), [2, 2])


def test_from_stuck_rejects_cells_outside_the_memory_and_bad_values():
    for index in (-1, 8):
        with pytest.raises(ValueError, match="outside"):
            bdc.DefectPattern.from_stuck(8, {index: 1})
    with pytest.raises(ValueError, match="not 0 or 1"):
        bdc.DefectPattern.from_stuck(8, {3: bdc.NORMAL})
    with pytest.raises(ValueError, match="NORMAL"):
        bdc.DefectPattern([0, bdc.NORMAL, -2])
    with pytest.raises(ValueError, match="NORMAL"):
        bdc.DefectPattern(np.array([0, 511]))  # would wrap to a normal cell
    assert bdc.DefectPattern.from_stuck(8, {7: 1}).defect_set.tolist() == [7]


def test_results_are_uint8():
    code = codes.two_block(8)
    message = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    pattern = bdc.DefectPattern.from_stuck(8, {0: 1, 5: 0})
    for encode in (bdc.additive_encode, bdc.mde_encode, bdc.binning_encode):
        out = encode(code, message, pattern)
        assert out.codeword.dtype == out.parity.dtype == np.uint8
        assert bdc.decode(code, out.codeword).dtype == np.uint8
    word, _ = bridge.quantize(code, bridge.BeqSource(pattern.s))
    assert word.dtype == np.uint8
    assert gf2.mat_mul(code.H.T, code.G).dtype == np.uint8

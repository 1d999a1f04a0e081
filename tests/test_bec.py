import itertools
from fractions import Fraction

import numpy as np
import pytest

from defectlab import bec, codes, gf2
from defectlab.errors import CapacityError


def agreeing_codewords(code, codeword, erased):
    """Oracle: enumerate the codebook, keep words matching on unerased bits."""
    erased = set(int(i) for i in erased)
    kept = [i for i in range(code.n) if i not in erased]
    hits = []
    for word in code.codewords():
        if np.array_equal(word[kept], codeword[kept]):
            hits.append(word)
    return hits


def pattern_average_failure(code, e):
    """Oracle: average the tie-count failure over every pattern of size e."""
    total = Fraction(0)
    count = 0
    zero = np.zeros(code.n, dtype=np.uint8)
    for pattern in itertools.combinations(range(code.n), e):
        ties = len(agreeing_codewords(code, zero, pattern))
        total += Fraction(ties - 1, ties)
        count += 1
    return total / count


def test_erase_nothing_returns_codeword():
    obs = bec.erase([1, 0, 1], [])
    assert np.array_equal(obs.y, [1, 0, 1])
    assert obs.erased_set.size == 0


def test_erase_everything():
    obs = bec.erase([1, 0, 1], [0, 1, 2])
    assert np.all(obs.y == bec.ERASED)


def test_erase_single_position():
    obs = bec.erase([1, 0, 1], [1])
    assert list(obs.y) == [1, bec.ERASED, 1]
    assert list(obs.unerased_set) == [0, 2]


def test_erase_rejects_out_of_range():
    with pytest.raises(ValueError):
        bec.erase([1, 0], [5])
    with pytest.raises(ValueError, match="ERASED"):
        bec.ErasureObservation([1, 2, bec.ERASED])
    # No entry may wrap or round into range on its way to uint8 or int8.
    for codeword in (np.array([0, 256]), [0.5, 1.0], [0, 256]):
        with pytest.raises(ValueError, match="0 or 1"):
            bec.erase(codeword, [])
    with pytest.raises(ValueError, match="ERASED"):
        bec.ErasureObservation(np.array([0, 255]))


def test_sample_erasures_extremes():
    rng = np.random.default_rng(0)
    assert bec.sample_erasures(8, 0.0, rng).size == 0
    assert bec.sample_erasures(8, 1.0, rng).size == 8
    with pytest.raises(ValueError):
        bec.sample_erasures(8, 1.5, rng)


def test_sample_erasures_rate_within_3_sigma():
    rng = np.random.default_rng(42)
    n, alpha = 10_000, 0.1
    hits = bec.sample_erasures(n, alpha, rng).size
    sigma = (n * alpha * (1 - alpha)) ** 0.5
    assert abs(hits - n * alpha) <= 3 * sigma


def test_decode_no_erasures_is_exact():
    code = codes.hamming(3)
    rng = np.random.default_rng(1)
    msg = np.array([1, 0, 1, 1], dtype=np.uint8)
    obs = bec.erase(gf2.mat_mul(code.G, msg), [])
    out = bec.map_decode_generator(code, obs, msg, rng)
    assert out.success and out.ambiguity_dim == 0
    assert np.array_equal(out.message_estimate, msg)


def test_two_erasures_always_decoded():
    # below the distance of hamming(7,4) every pattern is uniquely solvable
    code = codes.hamming(3)
    rng = np.random.default_rng(2)
    msg = np.array([0, 1, 1, 0], dtype=np.uint8)
    c = gf2.mat_mul(code.G, msg)
    for pattern in itertools.combinations(range(7), 2):
        out = bec.map_decode_generator(code, bec.erase(c, pattern), msg, rng)
        assert out.success and out.ambiguity_dim == 0


def test_erasing_a_codeword_support_leaves_two_candidates():
    code = codes.hamming(3)
    support = next(tuple(np.flatnonzero(w)) for w in code.codewords() if w.sum() == 3)
    msg = np.array([1, 1, 0, 0], dtype=np.uint8)
    c = gf2.mat_mul(code.G, msg)
    obs = bec.erase(c, support)
    candidates = agreeing_codewords(code, c, support)
    assert len(candidates) == 2

    kept = obs.unerased_set
    space = gf2.solve(code.G[kept], obs.y[kept].astype(np.uint8))
    assert space.dimension == 1
    wins = 0
    runs = 400
    rng = np.random.default_rng(3)
    for _ in range(runs):
        if bec.map_decode_generator(code, obs, msg, rng).success:
            wins += 1
    assert abs(wins / runs - 0.5) < 0.1  # fair coin within 4 sigma


def test_generator_and_parity_sides_agree_on_ambiguity():
    for code in [codes.hamming(3), codes.two_block(8), codes.reed_muller(1, 3),
                 codes.repetition(4), codes.single_parity(5)]:
        rng = np.random.default_rng(9)
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        c = gf2.mat_mul(code.G, msg)
        for e in range(code.n + 1):
            for pattern in itertools.combinations(range(code.n), e):
                obs = bec.erase(c, pattern)
                parity_side = bec.map_decode_parity(code, obs)
                gen_side = bec.map_decode_generator(code, obs, msg, rng)
                assert parity_side.status != "inconsistent"
                assert parity_side.dimension == gen_side.ambiguity_dim
                if parity_side.status == "unique" and e:
                    assert np.array_equal(parity_side.particular,
                                          c[np.asarray(pattern, dtype=np.intp)])


def test_parity_decode_no_erasures_vacuous():
    code = codes.hamming(3)
    c = gf2.mat_mul(code.G, np.array([1, 0, 0, 1], dtype=np.uint8))
    space = bec.map_decode_parity(code, bec.erase(c, []))
    assert space.status == "unique"
    assert space.particular.size == 0


def test_conditional_failure_matches_tie_count_oracle():
    code = codes.hamming(3)
    zero = np.zeros(code.n, dtype=np.uint8)
    for e in range(code.n + 1):
        for pattern in itertools.combinations(range(code.n), e):
            ties = len(agreeing_codewords(code, zero, pattern))
            expected = Fraction(ties - 1, ties)
            assert bec.conditional_failure_exact(code, pattern) == expected


def test_conditional_failure_values():
    code = codes.hamming(3)
    assert bec.conditional_failure_exact(code, [0, 1]) == 0
    support = next(tuple(np.flatnonzero(w)) for w in code.codewords() if w.sum() == 3)
    assert bec.conditional_failure_exact(code, support) == Fraction(1, 2)
    assert bec.conditional_failure_exact(code, range(7)) == Fraction(15, 16)


def test_failure_bound_regimes_hamming():
    wd = codes.hamming(3).weight_distribution()
    assert bec.failure_bound(7, 2, 3, wd) == bec.FailureBound(Fraction(0), "zero")
    assert bec.failure_bound(7, 3, 3, wd) == bec.FailureBound(Fraction(1, 10), "exact")
    assert bec.failure_bound(7, 4, 3, wd) == bec.FailureBound(Fraction(1, 2), "exact")
    assert bec.failure_bound(7, 5, 3, wd).regime == "upper"


def test_failure_bound_exact_regime_matches_pattern_oracle():
    code = codes.hamming(3)
    wd = code.weight_distribution()
    for e in (3, 4):
        assert bec.failure_bound(7, e, 3, wd).value == pattern_average_failure(code, e)


def test_failure_bound_dominates_oracle_everywhere():
    for code in [codes.hamming(3), codes.two_block(8), codes.repetition(5),
                 codes.single_parity(6), codes.reed_muller(1, 3)]:
        wd = code.weight_distribution()
        d = code.min_distance()
        for e in range(code.n + 1):
            bound = bec.failure_bound(code.n, e, d, wd)
            oracle = pattern_average_failure(code, e)
            assert bound.value >= oracle
            if bound.regime in ("zero", "exact"):
                assert bound.value == oracle


def test_failure_bound_parameter_errors():
    wd = codes.hamming(3).weight_distribution()
    with pytest.raises(ValueError):
        bec.failure_bound(7, 8, 3, wd)
    with pytest.raises(ValueError):
        bec.failure_bound(7, 3, 9, wd)
    with pytest.raises(ValueError):
        bec.failure_bound(7, 3, 4, wd)  # claims d=4 but wd has weight-3 words


def test_failure_prob_alpha_zero():
    assert bec.failure_prob(codes.hamming(3), 0).exact == 0


def test_failure_prob_repetition_all_erased():
    est = bec.failure_prob(codes.repetition(3), 1, "exhaustive")
    assert est.exact == Fraction(1, 2)


def test_failure_prob_exhaustive_matches_direct_sum():
    code = codes.hamming(3)
    alpha = Fraction(1, 10)
    expected = Fraction(0)
    for e in range(8):
        weight = alpha ** e * (1 - alpha) ** (7 - e)
        expected += weight * pattern_average_failure(code, e) * len(list(itertools.combinations(range(7), e)))
    got = bec.failure_prob(code, "0.1", "exhaustive").exact
    assert got == expected


def test_failure_prob_exhaustive_cap():
    with pytest.raises(CapacityError):
        bec.failure_prob(codes.bch(5, 2), 0.1, "exhaustive")


def test_monte_carlo_tracks_exhaustive_within_4_sigma():
    code = codes.hamming(3)
    exact = float(bec.failure_prob(code, 0.1, "exhaustive").exact)
    inside = 0
    seeds = range(5)
    for seed in seeds:
        est = bec.failure_prob(code, 0.1, "monte_carlo", trials=100_000, seed=seed)
        sigma = max(est.std_error, 1e-12)
        if abs(est.value - exact) <= 4 * sigma:
            inside += 1
        assert est.ci_low <= est.value <= est.ci_high
    assert inside == len(list(seeds))


def test_decoding_a_corrupted_word_is_rejected():
    code = codes.hamming(3)
    rng = np.random.default_rng(8)
    msg = np.array([1, 0, 0, 0], dtype=np.uint8)
    bad = gf2.mat_mul(code.G, msg)
    bad[0] ^= 1  # bit flip: no longer a codeword
    from defectlab.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        bec.map_decode_generator(code, bec.erase(bad, []), msg, rng)


def test_monte_carlo_is_seed_deterministic():
    code = codes.hamming(3)
    a = bec.failure_prob(code, 0.1, "monte_carlo", trials=2_000, seed=11)
    b = bec.failure_prob(code, 0.1, "monte_carlo", trials=2_000, seed=11)
    assert a == b


def test_capacity():
    # One capacity serves the erasure channel, the defect channel and the
    # zero-distortion erasure quantizer: 1 - p at pattern probability p.
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert bec.capacity(alpha) == 1 - alpha
        assert bec.capacity(alpha) == pytest.approx(1 - bec.capacity(1 - alpha))
    assert bec.capacity(0.1) == 0.9
    with pytest.raises(ValueError):
        bec.capacity(-0.2)


def test_repeated_erasure_indices_are_rejected():
    # One erasure never fails on a distance-3 code; a repeated index must not
    # be counted as a second erasure.
    assert bec.conditional_failure_exact(codes.hamming(3), [0]) == 0
    with pytest.raises(ValueError, match="repeated"):
        bec.conditional_failure_exact(codes.hamming(3), [0, 0])

import gc
import itertools
import weakref

import numpy as np
import pytest

from defectlab import bdc, codes, gf2, lwc
from defectlab.errors import CapacityError, ConstructionError, LocalityError


def locality_oracle(code, i):
    """Oracle: scan every masking word covering i, take the lightest."""
    weights = [
        int(w.sum())
        for bits in itertools.product([0, 1], repeat=code.n - code.k)
        if (w := gf2.mat_mul(code.H, np.array(bits, dtype=np.uint8)))[i]
    ]
    return min(weights) - 1 if weights else None


def test_single_parity_scheme_locality_is_n_minus_1():
    for n in (4, 6, 8):
        code = codes.single_parity(n)
        for i in code.info_positions:
            assert lwc.info_locality(code, i) == n - 1
        (j,) = code.parity_positions
        assert lwc.parity_locality(code, j) == n - 1


def test_two_block_locality_is_3_everywhere():
    code = codes.two_block(8)
    profile = lwc.rewriting_locality(code)
    assert profile.per_coordinate == (3,) * 8
    for i in code.info_positions:
        assert lwc.info_locality(code, i) == 3
    for j in code.parity_positions:
        assert lwc.parity_locality(code, j) == 3


def test_hamming_masking_code_has_locality_2():
    code = codes.hamming(3).dual()  # masking words form the Hamming code
    profile = lwc.rewriting_locality(code)
    assert profile == lwc.LwcProfile(7, 3, 4, 2, (2,) * 7)


def test_localities_match_enumeration_oracle():
    for code in [codes.two_block(8), codes.hamming(3).dual(), codes.single_parity(5),
                 codes.lrc_pyramid(9, 3), codes.repetition(4)]:
        profile = lwc.rewriting_locality(code)
        for i in range(code.n):
            assert profile.per_coordinate[i] == locality_oracle(code, i)


def test_locality_position_classes_enforced():
    code = codes.two_block(8)
    with pytest.raises(ValueError):
        lwc.info_locality(code, 3)  # parity position
    with pytest.raises(ValueError):
        lwc.parity_locality(code, 0)  # information position


def test_uncovered_coordinate_raises():
    # parity check [[1],[1],[0]]: masking words never touch coordinate 2
    code = codes.LinearCode.from_parity(np.array([[1], [1], [0]], dtype=np.uint8))
    with pytest.raises(LocalityError):
        lwc.rewriting_locality(code)
    assert 2 in code.info_positions
    with pytest.raises(LocalityError):
        lwc.info_locality(code, 2)
    assert 1 in code.parity_positions  # covered itself, but the code has an uncovered coordinate
    with pytest.raises(LocalityError):
        lwc.parity_locality(code, 1)


def test_profiles():
    assert lwc.rewriting_locality(codes.two_block(8)) == lwc.LwcProfile(8, 6, 2, 3, (3,) * 8)
    assert lwc.rewriting_locality(codes.single_parity(5)) == lwc.LwcProfile(5, 4, 2, 4, (4,) * 5)


def test_cyclic_locality_shortcut():
    assert lwc.cyclic_locality(codes.hamming(3).dual()) == 2   # masking distance 3
    assert lwc.cyclic_locality(codes.single_parity(7)) == 6    # masking words: repetition
    assert lwc.cyclic_locality(codes.repetition(7)) == 1       # masking words: even weight


def test_cyclic_locality_matches_exhaustive_max():
    for code in [codes.hamming(3).dual(), codes.single_parity(7), codes.repetition(7),
                 codes.hamming(3), codes.bch(4, 2).dual()]:
        assert lwc.cyclic_locality(code) == lwc.rewriting_locality(code).r_star


def test_cyclic_locality_requires_cyclic():
    with pytest.raises(ValueError):
        lwc.cyclic_locality(codes.two_block(8))


def test_initial_writing_cost_examples():
    pattern = bdc.DefectPattern.from_stuck(7, {2: 1})
    assert lwc.initial_writing_cost(np.ones(7, dtype=np.uint8), pattern) == 6
    clean = bdc.DefectPattern.all_normal(5)
    assert lwc.initial_writing_cost(np.zeros(5, dtype=np.uint8), clean) == 0
    with pytest.raises(ValueError):
        lwc.initial_writing_cost(np.zeros(7, dtype=np.uint8), pattern)


def test_initial_cost_bounded_by_weight_plus_locality():
    code = codes.two_block(8)
    r_star = lwc.rewriting_locality(code).r_star
    for bits in itertools.product([0, 1], repeat=6):
        msg = np.array(bits, dtype=np.uint8)
        for i in range(8):
            for v in (0, 1):
                pattern = bdc.DefectPattern.from_stuck(8, {i: v})
                out = bdc.additive_encode(code, msg, pattern)
                assert out.success
                cost = lwc.initial_writing_cost(out.codeword, pattern)
                assert cost <= int(msg.sum()) + r_star


def test_rewrite_without_defect_costs_message_distance():
    code = codes.two_block(8)
    clean = bdc.DefectPattern.all_normal(8)
    msg = np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8)
    new = np.array([1, 1, 0, 1, 0, 1], dtype=np.uint8)
    stored = bdc.additive_encode(code, msg, clean).codeword
    c_new, report = lwc.rewrite_update(code, stored, msg, new, clean)
    assert report.rewrite_cost == 2
    assert np.array_equal(bdc.decode(code, c_new), new)


def test_rewrite_conflicting_stuck_cell_is_tight():
    code = codes.two_block(8)
    msg = np.zeros(6, dtype=np.uint8)
    new = msg.copy()
    new[0] = 1  # update the bit living at coordinate 0
    pattern = bdc.DefectPattern.from_stuck(8, {0: 0})  # stuck at the old value
    stored = bdc.additive_encode(code, msg, pattern).codeword
    c_new, report = lwc.rewrite_update(code, stored, msg, new, pattern)
    assert report.rewrite_cost == 3  # delta weight 1 plus locality 3 minus 1
    delta = int((msg ^ new).sum())
    assert delta + lwc.rewriting_locality(code).r_star - 1 == 3
    assert bdc.error_count(c_new, pattern) == 0
    assert np.array_equal(bdc.decode(code, c_new), new)


def test_rewrite_single_parity_scheme_rewrites_n_minus_1_cells():
    n = 6
    code = codes.single_parity(n)
    msg = np.zeros(n - 1, dtype=np.uint8)
    new = msg.copy()
    new[2] = 1
    pattern = bdc.DefectPattern.from_stuck(n, {2: 0})
    stored = bdc.additive_encode(code, msg, pattern).codeword
    _, report = lwc.rewrite_update(code, stored, msg, new, pattern)
    assert report.rewrite_cost == n - 1


def test_rewrite_cost_obeys_bound_exhaustively_on_small_code():
    code = codes.two_block(4)
    r_star = lwc.rewriting_locality(code).r_star
    patterns = [bdc.DefectPattern.all_normal(4)] + [
        bdc.DefectPattern.from_stuck(4, {i: v}) for i in range(4) for v in (0, 1)
    ]
    for old_bits, new_bits in itertools.product(itertools.product([0, 1], repeat=2), repeat=2):
        msg = np.array(old_bits, dtype=np.uint8)
        new = np.array(new_bits, dtype=np.uint8)
        for pattern in patterns:
            out = bdc.additive_encode(code, msg, pattern)
            if not out.success:
                continue
            c_new, report = lwc.rewrite_update(code, out.codeword, msg, new, pattern)
            delta = int((msg ^ new).sum())
            assert report.rewrite_cost <= delta + r_star - 1
            assert bdc.error_count(c_new, pattern) == 0


def test_rewrite_validates_preconditions():
    code = codes.two_block(8)
    msg = np.zeros(6, dtype=np.uint8)
    stored = code.embed(msg)
    two_defects = bdc.DefectPattern.from_stuck(8, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        lwc.rewrite_update(code, stored, msg, msg, two_defects)
    bad_store = stored.copy()
    bad_store[0] ^= 1
    with pytest.raises(ValueError):
        lwc.rewrite_update(code, bad_store, msg, msg, bdc.DefectPattern.all_normal(8))


def test_lwc_from_lrc_hamming_parity_check():
    code = lwc.lwc_from_lrc(codes.hamming(3).H)
    profile = lwc.rewriting_locality(code)
    assert (profile.n, profile.k, profile.d_star, profile.r_star) == (7, 4, 3, 3)


def test_lwc_from_lrc_simplex_parity_check():
    # the simplex code's parity check is the Hamming generator
    code = lwc.lwc_from_lrc(codes.hamming(3).G)
    profile = lwc.rewriting_locality(code)
    assert (profile.n, profile.k, profile.d_star, profile.r_star) == (7, 3, 4, 2)
    assert profile.is_optimal
    assert lwc.cyclic_locality(code) == 2


def test_lwc_from_lrc_single_parity_gives_all_ones_mask():
    code = lwc.lwc_from_lrc(codes.single_parity(6).H)
    assert np.array_equal(code.H.ravel(), np.ones(6, dtype=np.uint8))


def test_lwc_from_lrc_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        lwc.lwc_from_lrc(np.array([[1, 1], [1, 1], [0, 0]], dtype=np.uint8))  # rank deficient
    with pytest.raises(ConstructionError):
        lwc.lwc_from_lrc(codes.two_block(8).H)  # not cyclic
    with pytest.raises(ValueError, match="0 or 1"):
        lwc.lwc_from_lrc(codes.hamming(3).H * np.int64(257))  # would wrap to a valid cyclic H


def test_parameter_duality_for_cyclic_pairs():
    # masking distance and locality come from the repair code's d and dual d
    for lrc in [codes.hamming(3), codes.hamming(3).dual(), codes.repetition(7),
                codes.single_parity(7), codes.bch(4, 2)]:
        code = lwc.lwc_from_lrc(lrc.H)
        profile = lwc.rewriting_locality(code)
        assert profile.d_star == lrc.min_distance()
        assert profile.r_star == lrc.dual().min_distance() - 1


def test_singleton_like_bound():
    assert lwc.singleton_like_bound(7, 3, 3) == 7 - 3 - 1 + 2  # r=k: classical value
    assert lwc.singleton_like_bound(7, 3, 2) == 4
    assert lwc.singleton_like_bound(8, 6, 3) == 2
    with pytest.raises(ValueError):
        lwc.singleton_like_bound(7, 3, 0)
    with pytest.raises(ValueError):
        lwc.singleton_like_bound(7, 8, 2)


def test_every_profile_respects_the_bound():
    for code in [codes.two_block(8), codes.hamming(3), codes.hamming(3).dual(),
                 codes.single_parity(5), codes.repetition(6), codes.lrc_pyramid(12, 3)]:
        p = lwc.rewriting_locality(code)
        assert p.d_star <= lwc.singleton_like_bound(p.n, p.k, p.r_star)


def test_lwc_from_lrc_is_built_cyclic():
    code = lwc.lwc_from_lrc(codes.hamming(3).H)
    assert code.cyclic and code.name == "lwc_from_lrc"


def test_rewrite_update_reads_no_locality_profile(monkeypatch):
    """The report holds costs only; the bounds belong to lwc-audit."""
    code = codes.two_block(8)
    msg = np.zeros(6, dtype=np.uint8)
    new = np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8)
    pattern = bdc.DefectPattern.from_stuck(8, {0: 0})
    stored = bdc.additive_encode(code, msg, pattern).codeword
    word, report = lwc.rewrite_update(code, stored, msg, new, pattern)

    def refuse(code):
        raise AssertionError("rewrite_update walked the locality profile")

    monkeypatch.setattr(lwc, "rewriting_locality", refuse)
    again, same = lwc.rewrite_update(code, stored, msg, new, pattern)
    assert np.array_equal(again, word) and same == report


def test_locality_cache_lives_only_as_long_as_the_code():
    code = codes.two_block(8)
    lwc.rewriting_locality(code)
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None


def test_masking_words_read_the_enumeration_cap(monkeypatch):
    code = codes.bch(4, 2)  # n-k = 8
    assert len(lwc.masking_codeword_ints(code)) == 256
    monkeypatch.setattr(codes, "ENUM_CAP", 7)
    with pytest.raises(CapacityError, match="n-k=8 exceeds enumeration cap ENUM_CAP = 7"):
        lwc.masking_codeword_ints(code)


def test_cached_profile_still_reads_the_enumeration_cap(monkeypatch):
    code = codes.bch(4, 2)  # n-k = 8
    assert lwc.rewriting_locality(code).r_star == 3
    monkeypatch.setattr(codes, "ENUM_CAP", 7)
    with pytest.raises(CapacityError, match="n-k=8 exceeds enumeration cap ENUM_CAP = 7"):
        lwc.rewriting_locality(code)

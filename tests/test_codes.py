import hashlib
import itertools
import time
from math import comb

import numpy as np
import pytest

from defectlab import codes, gf2
from defectlab.errors import CapacityError, ConstructionError, InvariantViolation
from test_acceptance import roster


def enumerate_weights(code):
    """Oracle: walk every message, multiply by G, tally weights."""
    counts = [0] * (code.n + 1)
    for bits in itertools.product([0, 1], repeat=code.k):
        c = gf2.mat_mul(code.G, np.array(bits, dtype=np.uint8))
        counts[int(c.sum())] += 1
    return tuple(counts)


SMALL_CODES = [
    codes.hamming(3),
    codes.reed_muller(1, 3),
    codes.reed_muller(2, 3),
    codes.repetition(5),
    codes.single_parity(6),
    codes.two_block(8),
    codes.lrc_pyramid(9, 3),
    codes.bch(4, 2),
]


@pytest.mark.parametrize("code", SMALL_CODES, ids=lambda c: c.name)
def test_parity_annihilates_generator(code):
    assert not np.any(gf2.mat_mul(code.H.T, code.G))
    assert gf2.rank(code.G) == code.k
    assert gf2.rank(code.H) == code.n - code.k


def test_hamming_shape_and_distance():
    code = codes.hamming(3)
    assert (code.n, code.k) == (7, 4)
    assert code.min_distance() == 3


def test_hamming_weight_distribution_matches_oracle():
    code = codes.hamming(3)
    expected = enumerate_weights(code)
    assert expected == (1, 0, 0, 7, 7, 0, 0, 1)
    assert code.weight_distribution() == expected


def test_repetition_distance_and_weights():
    code = codes.repetition(3)
    assert code.min_distance() == 3
    assert code.weight_distribution() == (1, 0, 0, 1)


def test_simplex_weights():
    simplex = codes.hamming(3).dual()
    assert (simplex.n, simplex.k) == (7, 3)
    assert enumerate_weights(simplex) == (1, 0, 0, 0, 7, 0, 0, 0)
    assert simplex.weight_distribution() == (1, 0, 0, 0, 7, 0, 0, 0)
    assert simplex.min_distance() == 4


def test_reed_muller_1_3():
    code = codes.reed_muller(1, 3)
    assert (code.n, code.k) == (8, 4)
    assert code.min_distance() == 4
    assert code.weight_distribution() == enumerate_weights(code)


def test_reed_muller_self_dual():
    code = codes.reed_muller(1, 3)
    assert code.same_codewords(code.dual())


def test_bch_15_7_distance():
    code = codes.bch(4, 2)
    assert (code.n, code.k) == (15, 7)
    assert code.min_distance() == 5


def test_bch_t1_is_hamming():
    assert codes.bch(3, 1).same_codewords(codes.hamming(3))


def test_two_block_masking_matrix():
    code = codes.two_block(8)
    assert (code.n, code.k) == (8, 6)
    expected = np.zeros((8, 2), dtype=np.uint8)
    expected[:4, 0] = 1
    expected[4:, 1] = 1
    assert np.array_equal(code.H, expected)
    assert code.min_distance() == 2


def test_dual_swaps_roles():
    for code in SMALL_CODES:
        d = code.dual()
        assert (d.n, d.k) == (code.n, code.n - code.k)
        assert code.same_codewords(d.dual())


def test_hamming_dual_is_simplex():
    ham = codes.hamming(3)
    simplex_wd = (1, 0, 0, 0, 7, 0, 0, 0)
    assert ham.dual().weight_distribution() == simplex_wd


def test_macwilliams_hamming_to_simplex():
    wd = codes.hamming(3).weight_distribution()
    assert codes.macwilliams_transform(wd, 7, 4) == (1, 0, 0, 0, 7, 0, 0, 0)


def test_macwilliams_full_space():
    from math import comb

    n = 5
    full = tuple(comb(n, w) for w in range(n + 1))
    assert codes.macwilliams_transform(full, n, n) == (1, 0, 0, 0, 0, 0)


def test_macwilliams_involution():
    wd = codes.repetition(3).weight_distribution()
    once = codes.macwilliams_transform(wd, 3, 1)
    assert codes.macwilliams_transform(once, 3, 2) == wd


def test_macwilliams_rejects_corrupted_counts():
    with pytest.raises(InvariantViolation):
        codes.macwilliams_transform((1, 3, 0, 0), 3, 2)


def macwilliams_sum_oracle(counts, n, k):
    """Reference transform, independent of the recurrence: each Krawtchouk
    value is its own alternating sum of binomials."""
    out = []
    for j in range(n + 1):
        total = 0
        for w, a_w in enumerate(counts):
            if not a_w:
                continue
            kraw = sum((-1) ** i * comb(w, i) * comb(n - w, j - i) for i in range(min(w, j) + 1))
            total += a_w * kraw
        q, r = divmod(total, 1 << k)
        assert not r and q >= 0
        out.append(q)
    return tuple(out)


@pytest.mark.parametrize("family, params", [
    ("bch", (8, 2)), ("hamming", (8,)), ("bch", (7, 3)), ("rm", (2, 4)), ("rm", (1, 5)),
    ("bch", (4, 2)), ("hamming", (3,)), ("two_block", (10,)), ("repetition", (7,))])
def test_macwilliams_recurrence_matches_the_binomial_sums(family, params):
    code = codes.build(family, *params)
    small = code if code.k <= code.n - code.k else code.dual()  # the side that is enumerated
    counts = small.weight_distribution()
    expected = macwilliams_sum_oracle(counts, code.n, small.k)
    assert codes.macwilliams_transform(counts, code.n, small.k) == expected
    assert sum(expected) == 1 << (code.n - small.k)


@pytest.mark.parametrize("code", [c for c in SMALL_CODES if c.n <= 15], ids=lambda c: c.name)
def test_macwilliams_matches_dual_enumeration(code):
    transformed = codes.macwilliams_transform(code.weight_distribution(), code.n, code.k)
    assert transformed == code.dual().weight_distribution()


def test_min_distance_equals_first_positive_weight():
    for code in SMALL_CODES:
        wd = code.weight_distribution()
        d = next(w for w in range(1, code.n + 1) if wd[w])
        assert code.min_distance() == d


@pytest.mark.parametrize("code", [c for c in SMALL_CODES if c.cyclic], ids=lambda c: c.name)
def test_cyclic_families_closed_under_shift(code):
    assert code.closed_under_shift()
    for word in code.codewords():
        shifted = np.roll(word, 1)
        assert not np.any(gf2.mat_mul(code.H.T, shifted))


def test_two_block_not_cyclic():
    assert not codes.two_block(8).closed_under_shift()


NEWLY_CYCLIC = ([codes.reed_muller(r, m) for m in range(1, 6) for r in sorted({0, m - 1, m})]
                + [codes.lrc_pyramid(6, 1)])


@pytest.mark.parametrize("code", roster() + NEWLY_CYCLIC, ids=lambda c: c.name)
def test_cyclic_is_derived_from_the_code(code):
    """`cyclic` equals closed_under_shift() and the check that H annihilates
    every shifted generator column, for the code and its dual."""
    for side in (code, code.dual()):
        shifted_in_code = not np.any(gf2.mat_mul(side.H.T, np.roll(side.G, 1, axis=0)))
        assert side.cyclic == side.closed_under_shift() == shifted_in_code
    if code in NEWLY_CYCLIC:
        assert code.cyclic and code.dual().cyclic


def test_reloaded_code_is_cyclic(tmp_path):
    path = tmp_path / "hamming3.txt"
    codes.save_code(codes.hamming(3), path)
    assert codes.load_code(path).cyclic


def test_cyclic_cannot_be_declared():
    code = codes.hamming(3)
    with pytest.raises(TypeError):
        codes.LinearCode(code.G, code.H, cyclic=True)


def test_exhaustive_cap_is_read_on_every_access(monkeypatch):
    code = codes.hamming(3)
    assert sum(map(sum, code.h_nullity_profile)) == 1 << 7
    monkeypatch.setattr(codes, "EXHAUSTIVE_CAP", 6)
    with pytest.raises(CapacityError, match="EXHAUSTIVE_CAP = 6, got n=7"):
        code.h_nullity_profile


def test_profile_beyond_the_cap_raises_at_once():
    code = codes.hamming(6)
    started = time.perf_counter()
    with pytest.raises(CapacityError, match="EXHAUSTIVE_CAP = 20, got n=63; use monte_carlo mode"):
        code.h_nullity_profile
    assert time.perf_counter() - started < 1


def test_enumeration_cap_is_named(monkeypatch):
    code = codes.reed_muller(2, 5)  # k = 16
    monkeypatch.setattr(codes, "ENUM_CAP", 10)
    with pytest.raises(CapacityError, match="ENUM_CAP = 10"):
        code.weight_distribution()


def test_weight_distribution_via_dual_route(monkeypatch):
    # The dual of bch(4,2) has k=8 > n-k=7, so it enumerates its own dual (the
    # n-k=7 side) and applies the transform; a cap of 7 rules out the k=8 side.
    direct = codes.bch(4, 2).weight_distribution()
    dual = codes.bch(4, 2).dual()
    monkeypatch.setattr(codes, "ENUM_CAP", 7)
    assert dual.weight_distribution() == codes.macwilliams_transform(direct, 15, 7)


def test_invalid_families_rejected():
    with pytest.raises(ConstructionError):
        codes.reed_muller(4, 3)
    with pytest.raises(ConstructionError):
        codes.two_block(7)
    with pytest.raises(ConstructionError):
        codes.cyclic_code(7, 0b111)  # x^2+x+1 does not divide x^7 - 1
    with pytest.raises(ConstructionError):
        codes.build("nonsense", 3)
    with pytest.raises(ConstructionError):
        codes.lrc_pyramid(8, 3)


def test_cyclic_generator_must_divide():
    code = codes.cyclic_code(7, 0b1011)
    assert code.same_codewords(codes.hamming(3))


def test_build_dispatch():
    assert codes.build("hamming", 3).name == "hamming(3)"
    assert codes.build("rm", 1, 3).k == 4


def test_info_positions_identity_block():
    for code in SMALL_CODES:
        m = code.decode_map
        eye = m[:, list(code.info_positions)]
        assert np.array_equal(eye, np.eye(code.k, dtype=np.uint8))
        assert not gf2.mat_mul(m, code.H).any()
        # decode_map reads an embedded message through any masking word
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        p = rng.integers(0, 2, code.n - code.k, dtype=np.uint8)
        stored = code.embed(msg) ^ gf2.mat_mul(code.H, p)
        assert np.array_equal(gf2.mat_mul(m, stored), msg)


def test_two_block_info_layout_interleaves_parity():
    code = codes.two_block(8)
    assert code.info_positions == (0, 1, 2, 4, 5, 6)
    assert code.parity_positions == (3, 7)


def test_embed_round_trip():
    code = codes.two_block(8)
    msg = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    x = code.embed(msg)
    assert np.array_equal(gf2.mat_mul(code.decode_map, x), msg)


def test_h_left_inverse():
    for code in SMALL_CODES:
        q = code.h_left_inverse
        assert np.array_equal(gf2.mat_mul(q, code.H), np.eye(code.n - code.k, dtype=np.uint8))


def test_text_round_trip():
    # k = 0 leaves the generator block empty, k = n the parity block.
    width_zero = [codes.reed_muller(3, 3).dual(), codes.reed_muller(3, 3)]
    for code in SMALL_CODES + width_zero:
        text = codes.to_text(code)
        back = codes.from_text(text)
        assert np.array_equal(back.G, code.G)
        assert np.array_equal(back.H, code.H)


def test_text_without_parity_block():
    code = codes.hamming(3)
    lines = codes.to_text(code).splitlines()
    g_only = "\n".join(lines[: 1 + code.n])
    back = codes.from_text(g_only)
    assert np.array_equal(back.G, code.G)
    assert back.same_codewords(code)
    assert codes.from_text("3 0\n").H.shape == (3, 3)


def test_zero_length_code_is_rejected():
    with pytest.raises(ConstructionError, match="n >= 1"):
        codes.LinearCode(np.zeros((0, 0), dtype=np.uint8))
    with pytest.raises(ConstructionError, match="n >= 1"):
        codes.from_text("0 0\n")


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        codes.from_text("3 2\n10\n01\n")  # row count mismatch
    with pytest.raises(ValueError):
        codes.from_text("not a header\n")


def test_save_and_load(tmp_path):
    path = tmp_path / "code.txt"
    code = codes.bch(4, 2)
    codes.save_code(code, path)
    assert codes.load_code(path).same_codewords(code)


def test_built_codes_are_immutable():
    code = codes.two_block(8)
    assert code.name == "two_block(8)"
    with pytest.raises(AttributeError, match="immutable"):
        code.name = "renamed"
    with pytest.raises(AttributeError, match="immutable"):
        code.cyclic = True
    with pytest.raises(ValueError):
        code.G[0, 0] ^= 1
    assert code.name == "two_block(8)" and not code.cyclic


def test_cap_is_checked_on_every_call(monkeypatch):
    code = codes.hamming(3)
    assert code.weight_distribution() == (1, 0, 0, 7, 7, 0, 0, 1)
    assert code.min_distance() == 3
    monkeypatch.setattr(codes, "ENUM_CAP", 1)
    with pytest.raises(CapacityError, match="ENUM_CAP = 1"):
        code.weight_distribution()
    with pytest.raises(CapacityError, match="ENUM_CAP = 1"):
        code.min_distance()


def test_constructor_leaves_the_callers_arrays_writable():
    H = codes.hamming(3).H.copy()
    G = codes.LinearCode.from_parity(H).G.copy()
    codes.LinearCode(G)
    assert H.flags.writeable and G.flags.writeable
    H[0, 0] ^= 1  # the caller may still edit its own array


def test_bch_golden_digest():
    # Recorded from the per-coset minimal-polynomial construction: every bch(m, t)
    # with m <= 8 keeps its name, G and H, or its error message.
    digest = hashlib.sha256()
    for m in sorted(codes.PRIMITIVE_POLYS):
        for t in range(1, (1 << m) - 1):
            digest.update(f"{m},{t};".encode())
            try:
                code = codes.bch(m, t)
            except ConstructionError as exc:
                digest.update(str(exc).encode())
            else:
                digest.update(f"{code.name};{code.k};".encode() + code.G.tobytes() + code.H.tobytes())
    assert digest.hexdigest() == "23ebfa5de036cb47ccb5dd7083ac6df704a78b481f5e9df61479a14477aba3fc"

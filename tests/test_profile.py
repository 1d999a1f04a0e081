"""The nullity profile against per-pattern ranks, and the two exhaustive
channel values against the generator-side route, over random codes."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectlab import bdc, bec, codes, gf2

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def full_rank_parity_checks(draw):
    """An n x w parity-check matrix of full column rank, n <= 10."""
    n = draw(st.integers(1, 10))
    width = draw(st.integers(0, n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * width, max_size=n * width))
    h = np.array(bits, dtype=np.uint8).reshape(n, width)
    assume(gf2.rank(h) == width)
    return h


@PROPERTIES
@given(full_rank_parity_checks())
def test_profile_matches_per_pattern_ranks(h):
    n, width = h.shape
    expected = [[0] * (n + 1) for _ in range(n + 1)]
    for e in range(n + 1):
        for pattern in itertools.combinations(range(n), e):
            expected[e][e - gf2.rank(h[list(pattern)])] += 1
    assert gf2.nullity_profile(gf2.pack_rows(h), width) == tuple(map(tuple, expected))


@PROPERTIES
@given(full_rank_parity_checks())
def test_profile_rows_count_every_pattern(h):
    n, width = h.shape
    profile = gf2.nullity_profile(gf2.pack_rows(h), width)
    assert [sum(row) for row in profile] == [comb(n, e) for e in range(n + 1)]


def generator_failure_numerators(code):
    """bec.failure_numerators by the generator route that map_decode_generator
    solves: erasing E leaves k - rank(G on the kept set) message bits free."""
    n, k = code.n, code.k
    kept = gf2.nullity_profile(code.g_rows_packed, k)
    numerators = []
    for e in range(n + 1):
        free = ((k - (n - e) + j, count) for j, count in enumerate(kept[n - e]))
        numerators.append(sum(count * ((1 << j) - 1) << (n - j) for j, count in free if count))
    return numerators


@PROPERTIES
@given(full_rank_parity_checks(), st.fractions(min_value=0, max_value=1, max_denominator=40))
def test_both_channels_match_the_generator_route(h, p):
    code = codes.LinearCode.from_parity(h)
    p_bec = bec.failure_prob(code, p, "exhaustive").exact
    p_bdc = bdc.enc_failure_prob(code, p, "exhaustive").exact
    generator = bec.pattern_polynomial(generator_failure_numerators(code), p)
    assert p_bec == p_bdc == generator


def test_profile_sums_match_the_conditional_oracles():
    for code in [codes.hamming(3), codes.reed_muller(1, 3), codes.two_block(8),
                 codes.repetition(5)]:
        numerators = bec.failure_numerators(code)
        for e in range(code.n + 1):
            patterns = list(itertools.combinations(range(code.n), e))
            for conditional in (bec.conditional_failure_exact, bdc.conditional_encfail_exact):
                total = sum((conditional(code, pat) for pat in patterns), Fraction(0))
                assert Fraction(numerators[e], 1 << code.n) == total


def test_saturated_walk_counts_every_superset():
    # full-rank square H: only the whole set of n rows reaches rank n
    profile = gf2.nullity_profile([0b001, 0b010, 0b100], 3)
    assert profile[3] == (1, 0, 0, 0)
    assert profile[2] == (3, 0, 0, 0)
    # width 0: every set is fully dependent
    assert gf2.nullity_profile([0, 0], 0) == ((1, 0, 0), (0, 2, 0), (0, 0, 1))

"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from defectlab import bdc, bec, bridge, codes, gf2, lwc


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def roster():
    return [
        codes.hamming(3),
        codes.hamming(3).dual(),
        codes.bch(4, 1),
        codes.bch(4, 2),
        codes.bch(4, 3),
        codes.reed_muller(1, 2),
        codes.reed_muller(1, 3),
        codes.reed_muller(2, 3),
        codes.repetition(5),
        codes.repetition(7),
        codes.single_parity(6),
        codes.single_parity(9),
        codes.two_block(4),
        codes.two_block(8),
        codes.two_block(12),
        codes.lrc_pyramid(9, 3),
        codes.lrc_pyramid(15, 5),
        codes.cyclic_code(7, 0b11101),
    ]


def pattern_average(code, e, conditional):
    total = Fraction(0)
    for pattern in itertools.combinations(range(code.n), e):
        total += conditional(code, pattern)
    return total / math.comb(code.n, e)


def test_01_duality_exact_equality():
    with criterion(1, "exact duality on hamming(7,4) at alpha=beta=0.1"):
        code = codes.hamming(3)
        started = time.perf_counter()
        p_decode = bec.failure_prob(code, "0.1", "exhaustive").exact
        p_masking = bdc.enc_failure_prob(code, "0.1", "exhaustive").exact
        elapsed = time.perf_counter() - started
        assert p_decode == p_masking  # exact rational equality
        assert p_decode == Fraction(118569, 32000000)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_duality_statistical_equality_at_scale():
    with criterion(2, "statistical duality on bch(15,7), 1e5 trials per side"):
        code = codes.bch(4, 2)
        trials = 100_000
        started = time.perf_counter()
        for idx, prob in enumerate([0.05, 0.1, 0.2]):
            seed_dec = np.random.SeedSequence(2024, spawn_key=(2 * idx,))
            seed_enc = np.random.SeedSequence(2024, spawn_key=(2 * idx + 1,))
            est_dec = bec.failure_prob(code, prob, "monte_carlo", trials=trials, seed=seed_dec)
            est_enc = bdc.enc_failure_prob(code, prob, "monte_carlo", trials=trials, seed=seed_enc)
            sigma = math.hypot(est_dec.std_error, est_enc.std_error)
            assert abs(est_dec.value - est_enc.value) <= 3 * sigma, (
                f"alpha={prob}: {est_dec.value} vs {est_enc.value}, 3sigma={3 * sigma}")
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_03_closed_form_matches_pattern_oracle():
    with criterion(3, "closed-form conditional failure on hamming(7,4)"):
        code = codes.hamming(3)
        wd = code.weight_distribution()
        for e, expected in ((3, Fraction(1, 10)), (4, Fraction(1, 2))):
            closed = bec.failure_bound(7, e, 3, wd)
            assert closed.regime == "exact"
            assert closed.value == expected
            assert closed.value == pattern_average(code, e, bec.conditional_failure_exact)


def test_04_zero_failure_below_distance():
    with criterion(4, "zero failures below the distance on every code with n<=12"):
        rng = np.random.default_rng(404)
        for code in roster():
            if code.n > 12:
                continue
            d = code.min_distance()
            message = rng.integers(0, 2, code.k, dtype=np.uint8)
            codeword = gf2.mat_mul(code.G, message)
            for e in range(d):
                for pattern in itertools.combinations(range(code.n), e):
                    assert bec.conditional_failure_exact(code, pattern) == 0
                    out = bec.map_decode_generator(code, bec.erase(codeword, pattern),
                                                   message, rng)
                    assert out.success and out.ambiguity_dim == 0
            for u in range(d):  # masking distance equals d: same parity-check matrix
                for locs in itertools.combinations(range(code.n), u):
                    assert bdc.conditional_encfail_exact(code, locs) == 0
                    for vals in itertools.product([0, 1], repeat=u):
                        pattern = bdc.DefectPattern.from_stuck(code.n, dict(zip(locs, vals)))
                        assert bdc.additive_encode(code, message, pattern).success


def test_05_bounds_dominate_oracle():
    with criterion(5, "weight-enumerator bounds dominate the pattern oracle"):
        for code in roster():
            if code.n > 12:
                continue
            wd = code.weight_distribution()
            d = code.min_distance()
            for e in range(code.n + 1):
                dec_bound = bec.failure_bound(code.n, e, d, wd)
                dec_oracle = pattern_average(code, e, bec.conditional_failure_exact)
                assert dec_bound.value >= dec_oracle
                if dec_bound.regime in ("zero", "exact"):
                    assert dec_bound.value == dec_oracle
                enc_bound = bdc.enc_failure_bound(code.n, e, d, wd)
                enc_oracle = pattern_average(code, e, bdc.conditional_encfail_exact)
                assert enc_bound.value >= enc_oracle
                if enc_bound.regime in ("zero", "exact"):
                    assert enc_bound.value == enc_oracle


def test_06_encoder_equivalence_exhaustive():
    with criterion(6, "additive, exhaustive-argmin, and coset encoders agree"):
        for code in (codes.two_block(8), codes.hamming(3)):
            n, k = code.n, code.k
            for msg_bits in itertools.product([0, 1], repeat=k):
                message = np.array(msg_bits, dtype=np.uint8)
                for u in range(n + 1):
                    for locs in itertools.combinations(range(n), u):
                        for vals in itertools.product([0, 1], repeat=u):
                            pattern = bdc.DefectPattern.from_stuck(n, dict(zip(locs, vals)))
                            a = bdc.additive_encode(code, message, pattern)
                            m = bdc.mde_encode(code, message, pattern)
                            b = bdc.binning_encode(code, message, pattern)
                            assert a.success == (m.residual_errors == 0) == b.success
                            if a.success:
                                assert m.success and not a.residual_errors
                                readback = bdc.apply_channel(a.codeword, pattern)
                                assert np.array_equal(bdc.decode(code, readback), message)


def test_07_lwc_parameter_duality():
    with criterion(7, "masking/repair parameter duality for the cyclic hamming pair"):
        # the simplex repair code's parity check is the hamming generator matrix
        code = lwc.lwc_from_lrc(codes.hamming(3).G)
        profile = lwc.rewriting_locality(code)
        assert (profile.n, profile.k) == (7, 3)
        assert (profile.d_star, profile.r_star) == (4, 2)
        assert lwc.singleton_like_bound(7, 3, 2) == 7 - 3 - 2 + 2 == 4
        assert profile.is_optimal
        assert lwc.cyclic_locality(code) == 2 == profile.r_star


def test_08_rewrite_cost_bound_audit():
    with criterion(8, "rewrite costs stay within delta + locality - 1 on two_block(8)"):
        code = codes.two_block(8)
        r_star = lwc.rewriting_locality(code).r_star
        assert r_star == 3
        tight = 0
        for old_bits in itertools.product([0, 1], repeat=6):
            old = np.array(old_bits, dtype=np.uint8)
            for new_bits in itertools.product([0, 1], repeat=6):
                new = np.array(new_bits, dtype=np.uint8)
                for i in range(8):
                    for v in (0, 1):
                        pattern = bdc.DefectPattern.from_stuck(8, {i: v})
                        stored = bdc.additive_encode(code, old, pattern)
                        assert stored.success  # single defect is always maskable here
                        _, report = lwc.rewrite_update(code, stored.codeword, old, new, pattern)
                        delta = int((old ^ new).sum())
                        assert report.rewrite_cost <= delta + r_star - 1
                        if report.rewrite_cost == delta + 2:
                            tight += 1
        assert tight > 0


def test_09_reduction_soundness_fuzz():
    with criterion(9, "quantization and write-once reductions hold under fuzzing"):
        code = codes.two_block(10)
        masking_words = lwc.masking_codeword_ints(code)
        rng = np.random.default_rng(909)
        started = time.perf_counter()
        for _ in range(10_000):
            src = bridge.sample_source(10, float(rng.uniform(0.1, 1.0)), rng)
            word, distortion = bridge.quantize(code, src)
            determined = src.samples != bridge.FREE
            assert distortion == int(
                (word[determined] != src.samples[determined].astype(np.uint8)).sum())
            word_int = gf2.pack_vector(src.samples * determined)
            pins = [(int(i), int(src.samples[i])) for i in np.flatnonzero(determined)]
            matchable = any(
                all((w >> i) & 1 == v for i, v in pins) for w in masking_words)
            assert (distortion == 0) == matchable
        for _ in range(10_000):
            cells = (rng.random(10) < 0.4).astype(np.uint8)
            state = bridge.WomState(cells)
            message = rng.integers(0, 2, 8, dtype=np.uint8)
            new_state, ok = bridge.wom_write(code, state, message)
            if ok:
                assert np.all(new_state.cells >= cells)  # nothing lowered
                assert np.array_equal(bdc.decode(code, new_state.cells), message)
            else:
                assert new_state is state
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_10_macwilliams_self_consistency():
    with criterion(10, "dual weight enumeration equals the transform on every code with n<=15"):
        for code in roster():
            if code.n > 15:
                continue
            transformed = codes.macwilliams_transform(code.weight_distribution(),
                                                      code.n, code.k)
            assert transformed == code.dual().weight_distribution()


def test_11_cli_determinism(tmp_path):
    with criterion(11, "identical config and seed give byte-identical CLI output"):
        commands = [
            [sys.executable, "-m", "defectlab", "duality", "--code", "bch:4,2",
             "--alpha", "0.05:0.15:0.05", "--mode", "monte_carlo",
             "--trials", "3000", "--seed", "13"],
            [sys.executable, "-m", "defectlab", "quaternity", "--code", "two_block:8",
             "--alpha", "0.5", "--trials", "300", "--seed", "8", "--format", "jsonl"],
            [sys.executable, "-m", "defectlab", "lwc-audit", "--code", "two_block:8",
             "--mode", "exhaustive"],
        ]
        for base in commands:
            first = subprocess.run(base, capture_output=True)
            second = subprocess.run(base, capture_output=True)
            assert first.returncode == second.returncode == 0, first.stderr
            assert first.stdout == second.stdout
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            proc = subprocess.run(commands[0] + ["--out", str(out)], capture_output=True)
            assert proc.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

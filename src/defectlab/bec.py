"""Binary erasure channel: MAP decoding and failure-probability analysis.

Received words are int8 vectors over {0, 1, ERASED}.  The decoder solves the
unerased restriction of the generator system; when several codewords agree on
the surviving bits it picks one uniformly at random, which is where decoding
failures come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import gf2
from .codes import LinearCode
from .errors import InvariantViolation
from .stats import FailureEstimate, as_fraction

ERASED = -1

MC_CHUNK = 1 << 16


def capacity(alpha: float) -> float:
    """Channel capacity at erasure probability alpha.

    The same 1 - p is the capacity of the defect channel at defect
    probability p (stuck cells known to the encoder) and the zero-distortion
    rate of erasure quantization at erasure fraction p.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return 1.0 - alpha


@dataclass
class ErasureObservation:
    """Channel output: -1 marks an erased coordinate."""

    y: np.ndarray

    def __post_init__(self):
        self.y = gf2.as_ternary_vector(self.y, "ERASED")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def erased_set(self) -> np.ndarray:
        return np.flatnonzero(self.y == ERASED)

    @property
    def unerased_set(self) -> np.ndarray:
        return np.flatnonzero(self.y != ERASED)


@dataclass
class DecodeOutcome:
    message_estimate: np.ndarray
    success: bool
    ambiguity_dim: int


@dataclass
class FailureBound:
    """Piecewise failure-probability value: exactly zero, exact, or an upper bound."""

    value: Fraction
    regime: str  # "zero" | "exact" | "upper"


def erase(codeword, erased) -> ErasureObservation:
    """Erase the given coordinates of a codeword."""
    c = gf2.as_bit_vector(codeword)
    erased = np.asarray(erased, dtype=np.intp)
    if erased.size and (erased.min() < 0 or erased.max() >= c.shape[0]):
        raise ValueError("erasure index out of range")
    y = c.astype(np.int8)
    y[erased] = ERASED
    return ErasureObservation(y)


def sample_erasures(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Each coordinate is erased independently with probability alpha."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return np.flatnonzero(rng.random(n) < alpha)


def map_decode_generator(code: LinearCode, obs: ErasureObservation, true_message,
                         rng: np.random.Generator) -> DecodeOutcome:
    """Solve the unerased generator equations; break ties uniformly at random."""
    if obs.n != code.n:
        raise ValueError(f"observation length {obs.n} != blocklength {code.n}")
    true_message = gf2.as_bit_vector(true_message, code.k)
    estimate, free = _decode_packed(code, gf2.pack_vector(obs.y != ERASED),
                                    gf2.pack_vector(obs.y == 1), rng)
    return DecodeOutcome(gf2.unpack_vector(estimate, code.k),
                         estimate == gf2.pack_vector(true_message), free)


def _decode_packed(code: LinearCode, kept: int, received: int,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Packed message estimate and its number of free bits.

    Solves G's rows on the kept coordinates (bit mask) against the received
    word; the 2^free candidates that agree with it are equally likely, so a
    tie is broken by a uniform draw.
    """
    sol = gf2.solve_packed(code.g_rows_packed, code.k, received, kept)
    if not sol.consistent:
        raise InvariantViolation("received word agrees with no codeword; input is corrupted")
    free = code.k - sol.rank
    estimate = sol.particular
    if free:
        combo = _random_bits(rng, free)
        for idx, vec in enumerate(sol.basis):
            if (combo >> idx) & 1:
                estimate ^= vec
    return estimate, free


def map_decode_parity(code: LinearCode, obs: ErasureObservation) -> gf2.SolutionSpace:
    """Solution space for the erased coordinates via the parity-check equations."""
    if obs.n != code.n:
        raise ValueError(f"observation length {obs.n} != blocklength {code.n}")
    erased = obs.erased_set
    kept = obs.unerased_set
    syndrome_target = gf2.mat_mul(code.H[kept].T, obs.y[kept].astype(np.uint8))
    return gf2.solve(code.H[erased].T, syndrome_target)


def conditional_failure_exact(code: LinearCode, erased) -> Fraction:
    """Failure probability of random tie-breaking given the erasure pattern."""
    return _pattern_failure(code, erased, "erasure")


def _pattern_failure(code: LinearCode, pattern, kind: str) -> Fraction:
    """1 - 2^-j for j the nullity of H's rows on the pattern: the conditional
    failure of either channel, checked one pattern at a time."""
    pattern = np.asarray(pattern, dtype=np.intp)
    if pattern.size and (pattern.min() < 0 or pattern.max() >= code.n):
        raise ValueError(f"{kind} index out of range")
    if np.unique(pattern).size != pattern.size:
        raise ValueError(f"repeated {kind} index")
    j = pattern.size - gf2.rank_packed(code.h_rows_packed[i] for i in pattern)
    return Fraction((1 << j) - 1, 1 << j)


def failure_numerators(code: LinearCode) -> list[int]:
    """2^n times the conditional failure summed over all patterns of each size e.

    A pattern E fails with probability 1 - 2^-j on both channels, j being the
    nullity of H's rows on E, so the sums are read off the code's checked
    nullity profile.
    """
    return [sum(count * ((1 << j) - 1) << (code.n - j) for j, count in enumerate(row))
            for row in code.h_nullity_profile]


def pattern_polynomial(numerators: list[int], p: Fraction) -> Fraction:
    """Sum over e of p^e (1 - p)^(n - e) numerators[e] / 2^n, in exact arithmetic."""
    n = len(numerators) - 1
    a, b = p.numerator, p.denominator
    total = sum(a ** e * (b - a) ** (n - e) * num for e, num in enumerate(numerators))
    return Fraction(total, b ** n << n)


def failure_bound(n: int, e: int, d: int, wd) -> FailureBound:
    """Piecewise conditional failure probability for e erasures.

    Below the minimum distance the failure probability is exactly zero; in
    the window d <= e <= d + floor((d-1)/2) the halved weight-enumerator sum
    is exact; beyond it the unhalved sum is only an upper bound (clamped to 1).
    """
    if not (0 <= e <= n) or not (1 <= d <= n):
        raise ValueError(f"need 0 <= e <= n and 1 <= d <= n, got n={n}, e={e}, d={d}")
    wd = tuple(int(x) for x in wd)
    if len(wd) != n + 1 or wd[0] != 1:
        raise ValueError("weight distribution must have n+1 entries and start at 1")
    if any(wd[w] for w in range(1, d)):
        raise ValueError("weight distribution is inconsistent with the claimed distance")
    if e < d:
        return FailureBound(Fraction(0), "zero")
    total = sum(wd[w] * comb(n - w, e - w) for w in range(d, e + 1))
    ratio = Fraction(total, comb(n, e))
    if e <= d + (d - 1) // 2:
        return FailureBound(ratio / 2, "exact")
    return FailureBound(min(ratio, Fraction(1)), "upper")


def failure_prob(code: LinearCode, alpha, mode: str = "exhaustive", *,
                 trials: int = 10_000, seed=0) -> FailureEstimate:
    """Overall P(decoding failure) at erasure probability alpha.

    Exhaustive mode evaluates the code's nullity profile as a polynomial in
    alpha with exact rational arithmetic.  Monte Carlo mode simulates
    encode/erase/decode trials and reports a Wilson 95% interval.
    """
    return channel_failure_prob(code, alpha, "alpha", mode, trials, seed, _mc_decode_failures)


def channel_failure_prob(code: LinearCode, p, name: str, mode: str, trials: int, seed,
                         simulate) -> FailureEstimate:
    """Failure probability of either channel at pattern probability p.

    Exhaustive mode is exact; Monte Carlo mode counts the failures that
    simulate(code, p, trials, rng) returns, in chunks of at most MC_CHUNK
    trials drawn from the one stream np.random.default_rng(seed).  `seed` is
    an int, a SeedSequence, or a Generator, which is drawn from in place.
    """
    if mode not in ("exhaustive", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    p = as_fraction(p) if mode == "exhaustive" else float(p)
    if not 0 <= p <= 1:
        raise ValueError(f"{name} must lie in [0, 1]")
    if mode == "exhaustive":
        return FailureEstimate.from_exact(pattern_polynomial(failure_numerators(code), p))
    rng = np.random.default_rng(seed)
    failures = sum(simulate(code, p, min(MC_CHUNK, trials - start), rng)
                   for start in range(0, trials, MC_CHUNK))
    return FailureEstimate.from_counts(failures, trials)


def _mc_decode_failures(code: LinearCode, alpha: float, trials: int,
                        rng: np.random.Generator) -> int:
    """Encode/erase/decode trials: messages and erasures are drawn in bulk, and
    one batched elimination of G's kept rows finds each trial's free message
    bits, the columns that are not pivots.

    A trial with none decodes to its message and draws nothing.  Each other
    trial, in order, draws its tie-break as `_decode_packed` does, and fails
    exactly when the draw differs from the message's bits at its free columns,
    packed in increasing order: the particular solution is 0 at the free
    columns, and basis vector i is 1 at free column i alone.
    """
    k = code.k
    messages = rng.integers(0, 2, (trials, k), dtype=np.uint8)
    codewords = gf2.mat_mul(messages, code.G.T)
    kept = rng.random((trials, code.n)) >= alpha
    pivots = gf2.pivot_columns(code.g_rows_packed, k, kept, codewords == 1)
    if pivots[:, k].any():
        raise InvariantViolation("received word agrees with no codeword; input is corrupted")
    free = ~pivots[:, :k]
    tied = free.any(axis=1)
    return sum(_random_bits(rng, mask.bit_count()) != _bits_at(message, mask)
               for message, mask in zip(gf2.pack_rows(messages[tied]), gf2.pack_rows(free[tied])))


def _bits_at(word: int, mask: int) -> int:
    """The bits of `word` at the set bits of `mask`, packed from bit 0 up."""
    out = i = 0
    while mask:
        low = mask & -mask
        if word & low:
            out |= 1 << i
        mask ^= low
        i += 1
    return out


def _random_bits(rng: np.random.Generator, width: int) -> int:
    out = 0
    for shift in range(0, width, 32):
        out |= int(rng.integers(0, 1 << min(32, width - shift))) << shift
    return out

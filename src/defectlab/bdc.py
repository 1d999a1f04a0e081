"""Binary defect channel: stuck-at masking encoders and failure analysis.

The masking role of a LinearCode: its parity-check matrix H generates the
masking code (the encoder may add any column combination of H), its k info
positions carry the message, and its systematic decode map reads the message
back out.  Channel state vectors are int8 over {0, 1, NORMAL}; a stuck cell
outputs its stuck value no matter what is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bec, gf2
from .codes import LinearCode
from .errors import CapacityError, InvariantViolation
from .stats import FailureEstimate

NORMAL = -1

MDE_CAP = 20


@dataclass
class DefectPattern:
    """Memory state: -1 marks a normal cell, 0/1 a stuck-at value."""

    s: np.ndarray

    def __post_init__(self):
        self.s = gf2.as_ternary_vector(self.s, "NORMAL")
        self.defect_set = np.flatnonzero(self.s != NORMAL)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def num_defects(self) -> int:
        return self.defect_set.size

    @classmethod
    def all_normal(cls, n: int) -> "DefectPattern":
        return cls(np.full(n, NORMAL, dtype=np.int8))

    @classmethod
    def from_stuck(cls, n: int, stuck: dict[int, int]) -> "DefectPattern":
        s = np.full(n, NORMAL, dtype=np.int8)
        for i, v in stuck.items():
            if not 0 <= i < n:
                raise ValueError(f"stuck cell {i} lies outside [0, {n})")
            if v not in (0, 1):
                raise ValueError(f"stuck value {v!r} of cell {i} is not 0 or 1")
            s[i] = v
        return cls(s)


@dataclass
class EncodeOutcome:
    """Result of a masking attempt; success means every stuck cell is matched."""

    codeword: np.ndarray
    parity: np.ndarray
    success: bool
    residual_errors: int


@dataclass
class EncodeBatch:
    """Masking attempts of a batch: row t of each array belongs to trial t."""

    codewords: np.ndarray
    parities: np.ndarray
    residual_errors: np.ndarray

    @property
    def success(self) -> np.ndarray:
        return self.residual_errors == 0

    def outcome(self, t: int) -> EncodeOutcome:
        residual = int(self.residual_errors[t])
        return EncodeOutcome(self.codewords[t], self.parities[t], residual == 0, residual)


def apply_channel(x, pattern: DefectPattern) -> np.ndarray:
    """Write x through the memory: stuck cells output their stuck value."""
    x = gf2.as_bit_vector(x)
    if x.shape[0] != pattern.n:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {pattern.n}")
    y = x.copy()
    defects = pattern.defect_set
    y[defects] = pattern.s[defects]
    return y


def error_count(x, pattern: DefectPattern) -> int:
    """Number of cells whose readback differs from what was written."""
    x = gf2.as_bit_vector(x)
    if x.shape[0] != pattern.n:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {pattern.n}")
    defects = pattern.defect_set
    return int((x[defects] != pattern.s[defects]).sum())


def sample_defects(n: int, beta: float, rng: np.random.Generator) -> DefectPattern:
    """Each cell is stuck independently with probability beta, at 0 or 1 with
    equal odds."""
    if not 0 <= beta <= 1:
        raise ValueError("beta must lie in [0, 1]")
    stuck = rng.random(n) < beta
    values = (rng.random(n) < 0.5).astype(np.int8)
    s = np.where(stuck, values, np.int8(NORMAL)).astype(np.int8)
    return DefectPattern(s)


def _check_instance(code: LinearCode, message, pattern: DefectPattern):
    message = gf2.as_bit_vector(message, code.k)
    if pattern.n != code.n:
        raise ValueError(f"state length {pattern.n} != blocklength {code.n}")
    return message


def _check_batch(code: LinearCode, messages, states) -> tuple[np.ndarray, np.ndarray]:
    """T x k messages and T x n defect states, validated once for the batch.

    Each operation has one kernel on validated rows (`_additive_rows`, ...).
    A batch entry point checks its matrices here; the single-instance call
    checks its vector and pattern and runs the kernel on one row."""
    messages = gf2.as_bit_rows(messages, code.k)
    return messages, gf2.as_ternary_rows(states, code.n, messages.shape[0], "NORMAL")


def additive_encode(code: LinearCode, message, pattern: DefectPattern) -> EncodeOutcome:
    """Mask defects by solving for a parity vector; free parities default to 0.

    When no exact masking exists, the codeword from the consistent subsystem
    (earlier stuck cells take priority) is returned with its residual count.
    """
    message = _check_instance(code, message, pattern)
    return _additive_rows(code, message[None], pattern.s[None]).outcome(0)


def additive_encode_batch(code: LinearCode, messages, states) -> EncodeBatch:
    """`additive_encode` of row t of the T x k messages against row t of the
    T x n defect states, one masking kernel call per row."""
    return _additive_rows(code, *_check_batch(code, messages, states))


def _additive_rows(code: LinearCode, messages: np.ndarray, states: np.ndarray) -> EncodeBatch:
    """Per row: the parity word p with (H p)_i = base_i ^ s_i on every defect
    cell i, earlier cells first, where base embeds the message.  It is
    consistent exactly when the row's defects can be masked, and base ^ H p
    misses exactly the cells in `violated`, the pins the solve dropped.  The
    Monte Carlo simulator finds the same consistency for a whole chunk of
    trials with `gf2.pivot_columns`."""
    base = code.embed(messages)
    width = code.n - code.k
    targets, defects = gf2.pack_rows(base ^ (states == 1)), gf2.pack_rows(states != NORMAL)
    solves = [gf2.solve_packed(code.h_rows_packed, width, target, pins)
              for target, pins in zip(targets, defects)]
    parities = gf2.unpack_rows([sol.particular for sol in solves], width)
    return EncodeBatch(base ^ gf2.mat_mul(parities, code.H.T), parities,
                       np.array([len(sol.violated) for sol in solves]))


def mde_encode(code: LinearCode, message, pattern: DefectPattern) -> EncodeOutcome:
    """Exhaustive error-minimizing encoder; ties go to the lexicographically
    smallest parity."""
    width = code.n - code.k
    if width > MDE_CAP:
        raise CapacityError(f"n-k={width} exceeds the exhaustive parity cap MDE_CAP = {MDE_CAP}")
    message = _check_instance(code, message, pattern)
    base = code.embed(message)
    target, defects = gf2.pack_words(np.stack([base ^ (pattern.s == 1), pattern.s != NORMAL]))
    residuals = np.bitwise_count((code.masking_words() ^ target) & defects).sum(axis=1)
    best_residual = int(residuals.min())
    tied = np.flatnonzero(residuals == best_residual)  # row i adds the columns of H at the bits of i
    for j in range(width):  # lexicographic: parity bit 0 first, ties narrow per bit
        zero = tied[((tied >> j) & 1) == 0]
        tied = zero if zero.size else tied
    best_parity = int(tied[0])
    parity = gf2.unpack_vector(best_parity, width)
    codeword = base ^ gf2.mat_mul(code.H, parity)
    if error_count(codeword, pattern) != best_residual:
        raise InvariantViolation("encoded word misses a different number of stuck cells than searched")
    return EncodeOutcome(codeword, parity, best_residual == 0, best_residual)


def binning_encode(code: LinearCode, message, pattern: DefectPattern) -> EncodeOutcome:
    """Pick a codeword of the message's coset that agrees with the stuck cells.

    The system stacks the k syndrome equations (always satisfiable) above one
    pin equation per stuck cell, so a failed attempt still decodes to the
    requested message and its residual counts the unsatisfiable pins.
    """
    message = _check_instance(code, message, pattern)
    return _binning_rows(code, message[None], pattern.s[None]).outcome(0)


def binning_encode_batch(code: LinearCode, messages, states) -> EncodeBatch:
    """`binning_encode` of row t of the T x k messages against row t of the
    T x n defect states, one solve per row."""
    return _binning_rows(code, *_check_batch(code, messages, states))


def _binning_rows(code: LinearCode, messages: np.ndarray, states: np.ndarray) -> EncodeBatch:
    # Row k + i of the system pins cell i.  A row's bit mask picks the k
    # syndrome rows and its stuck cells, so the solve takes the syndrome
    # equations first, then one pin per stuck cell in coordinate order; the
    # syndromes are independent, so every dropped equation is a pin.
    n, k = code.n, code.k
    rows = [*code.decode_rows_packed, *(1 << i for i in range(n))]
    syndromes = (1 << k) - 1
    stuck, defects = gf2.pack_rows(states == 1), gf2.pack_rows(states != NORMAL)
    solves = [gf2.solve_packed(rows, n, message | s << k, syndromes | d << k)
              for message, s, d in zip(gf2.pack_rows(messages), stuck, defects)]
    codewords = gf2.unpack_rows([sol.particular for sol in solves], n)
    parities = gf2.mat_mul(codewords ^ code.embed(messages), code.h_left_inverse.T)
    return EncodeBatch(codewords, parities, np.array([len(sol.violated) for sol in solves]))


def decode(code: LinearCode, y) -> np.ndarray:
    """Read the message back through the systematic decode map."""
    y = gf2.as_bit_vector(y, code.n)
    return _decode_rows(code, y[None])[0]


def decode_batch(code: LinearCode, words) -> np.ndarray:
    """Row t: the message read back from row t of the T x n words."""
    return _decode_rows(code, gf2.as_bit_rows(words, code.n))


def _decode_rows(code: LinearCode, words: np.ndarray) -> np.ndarray:
    return gf2.mat_mul(words, code.decode_map.T)


def conditional_encfail_exact(code: LinearCode, defect_set) -> Fraction:
    """Masking failure probability over uniform stuck values, given the locations."""
    return bec._pattern_failure(code, defect_set, "defect")


def enc_failure_bound(n: int, u: int, d_star: int, wd_dual) -> bec.FailureBound:
    """Piecewise masking-failure value for u defects; mirrors the erasure side
    with the masking distance and the dual weight distribution."""
    return bec.failure_bound(n, u, d_star, wd_dual)


def enc_failure_prob(code: LinearCode, beta, mode: str = "exhaustive", *,
                     trials: int = 10_000, seed=0) -> FailureEstimate:
    """Overall P(masking failure) at defect probability beta."""
    return bec.channel_failure_prob(code, beta, "beta", mode, trials, seed, _mc_masking_failures)


def _mc_masking_failures(code: LinearCode, beta: float, trials: int,
                         rng: np.random.Generator) -> int:
    """Message/state trials: messages, defects and stuck values are drawn in
    bulk, and one batched elimination of H's rows on each trial's defects,
    with right-hand side word ^ stuck value, finds the trials that cannot be
    masked: those whose right-hand side bit is a pivot."""
    n, k = code.n, code.k
    messages = rng.integers(0, 2, (trials, k), dtype=np.uint8)
    defects = rng.random((trials, n)) < beta
    stuck = rng.integers(0, 2, (trials, n), dtype=np.uint8)
    pivots = gf2.pivot_columns(code.h_rows_packed, n - k, defects, code.embed(messages) != stuck)
    return int(pivots[:, n - k].sum())

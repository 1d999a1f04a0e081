"""Locally rewritable codes: localities, write costs, and LRC-based construction.

The masking code of a LinearCode (the column span of its H) determines how
cheaply a stuck cell can be compensated: a coordinate covered by a light
masking word only drags a few neighbours along when it must be rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bdc, gf2
from .codes import LinearCode
from .errors import ConstructionError, InvariantViolation, LocalityError, MaskingError


@dataclass(frozen=True)
class LwcProfile:
    """Code dimensions plus masking distance and per-coordinate localities."""

    n: int
    k: int
    d_star: int
    r_star: int
    per_coordinate: tuple[int, ...]

    @property
    def is_optimal(self) -> bool:
        return self.d_star == singleton_like_bound(self.n, self.k, self.r_star)


@dataclass(frozen=True)
class CostReport:
    """First-write and rewrite costs; lwc-audit checks weight + r* and delta + r* - 1."""

    initial_cost: int
    rewrite_cost: int


_NO_WORD = np.iinfo(np.uint64).max  # above every candidate word of a tie-break step


def masking_codeword_ints(code: LinearCode) -> list[int]:
    """All 2^(n-k) masking words (column combinations of H) as packed ints,
    read off the code's cached word array in its `gf2.span_words` order."""
    return gf2.pack_rows(gf2.unpack_words(code.masking_words(), code.n))


def _coverage_weights(code: LinearCode) -> np.ndarray:
    """Per coordinate: weight of the lightest masking word covering it, or
    n + 1 when no masking word covers it."""
    masking = code.masking_words()
    best = np.full(code.n, code.n + 1)
    weight_type = np.min_scalar_type(code.n + 1)  # uint8 up to n = 254
    for lo in range(0, len(masking), gf2.SPAN_BLOCK):
        block = masking[lo:lo + gf2.SPAN_BLOCK]
        weights = np.bitwise_count(block).sum(axis=1, dtype=weight_type)
        covering = np.where(gf2.unpack_words(block, code.n), weights[:, None], code.n + 1)
        best = np.minimum(best, covering.min(axis=0))
    return best


def info_locality(code: LinearCode, i: int) -> int:
    """Cells to rewrite when updating the message bit at info coordinate i
    while that cell is stuck."""
    if i not in code.info_positions:
        raise ValueError(f"coordinate {i} is not an information position of {code.name}")
    return rewriting_locality(code).per_coordinate[i]


def parity_locality(code: LinearCode, j: int) -> int:
    """Extra cells to write when storing one symbol against a stuck parity
    cell at coordinate j."""
    if j not in code.parity_positions:
        raise ValueError(f"coordinate {j} is not a parity position of {code.name}")
    return rewriting_locality(code).per_coordinate[j]


def rewriting_locality(code: LinearCode) -> LwcProfile:
    """Full locality profile; its maximum r* is the code's rewriting locality.
    Raises LocalityError if any coordinate lies outside every masking word."""
    cover = _coverage_weights(code)
    uncovered = np.flatnonzero(cover > code.n).tolist()
    if uncovered:
        raise LocalityError(f"coordinates {uncovered} lie outside every masking word")
    per_coordinate = tuple(int(c) - 1 for c in cover)
    d_star = code.min_distance()
    profile = LwcProfile(code.n, code.k, d_star, max(per_coordinate), per_coordinate)
    bound = singleton_like_bound(profile.n, profile.k, profile.r_star)
    if profile.d_star > bound:
        raise InvariantViolation(f"profile {profile} violates the distance bound {bound}")
    return profile


def cyclic_locality(code: LinearCode) -> int:
    """For a cyclic masking code the locality is its minimum distance minus one."""
    if not code.cyclic:
        raise ValueError("rewriting locality shortcut requires a cyclic code")
    return code.dual().min_distance() - 1


def initial_writing_cost(codeword, pattern: bdc.DefectPattern) -> int:
    """Cells physically programmed when first storing into zeroed memory:
    the word's weight minus the defects already stuck at one."""
    codeword = gf2.as_bit_vector(codeword, pattern.n)
    if bdc.error_count(codeword, pattern):
        raise ValueError("codeword does not mask the stuck cells")
    return int(_initial_costs(codeword[None], pattern.s[None])[0])


def _initial_costs(codewords: np.ndarray, states: np.ndarray) -> np.ndarray:
    return codewords.sum(axis=1, dtype=np.int64) - (states == 1).sum(axis=1)


def rewrite_update(code: LinearCode, stored, message, new_message,
                   pattern: bdc.DefectPattern) -> tuple[np.ndarray, CostReport]:
    """Re-encode an update, flipping as few cells as possible.

    Requires at most one stuck cell, and that `stored` encodes `message` and
    masks it.  Ties between equally cheap rewrites go to the lexicographically
    smallest new word.  The report holds the costs only; `lwc-audit` checks
    them against delta + r* - 1 (rewrites) and weight + r* (first writes).
    """
    message = bdc._check_instance(code, message, pattern)
    new_message = gf2.as_bit_vector(new_message, code.k)
    stored = gf2.as_bit_vector(stored, code.n)
    words, initial, rewrite = _rewrite_rows(code, stored[None], message[None],
                                            new_message[None], pattern.s[None])
    return words[0], CostReport(int(initial[0]), int(rewrite[0]))


def rewrite_update_batch(code: LinearCode, stored, messages, new_messages,
                         states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`rewrite_update` of every row: T x n stored words, T x k messages and
    new messages, and T x n defect states.

    Returns the T x n new words, the initial costs and the rewrite costs.  The
    preconditions are checked once over the batch; a row that breaks one
    raises the error of the single call.
    """
    stored = gf2.as_bit_rows(stored, code.n)
    rows = stored.shape[0]
    return _rewrite_rows(code, stored, gf2.as_bit_rows(messages, code.k, rows),
                         gf2.as_bit_rows(new_messages, code.k, rows),
                         gf2.as_ternary_rows(states, code.n, rows, "NORMAL"))


def _rewrite_rows(code: LinearCode, stored: np.ndarray, messages: np.ndarray,
                  new_messages: np.ndarray, states: np.ndarray):
    """The rewrite kernel on validated rows.  Each candidate is the new
    message's embedding XOR one masking word, in the `gf2.pack_words` layout,
    so its cost is one XOR and popcount per word, and the lexicographically
    smallest of the cheapest (`gf2.precedes`) is the numerically smallest."""
    pinned = states != bdc.NORMAL
    if (pinned.sum(axis=1) > 1).any():
        raise ValueError("rewrite locality arguments assume at most one stuck cell")
    if (bdc._decode_rows(code, stored) != messages).any():
        raise ValueError("stored word does not encode the current message")
    if ((stored != states) & pinned).any():
        raise ValueError("stored word does not mask the stuck cell")

    masking = code.masking_words()
    rows = stored.shape[0]
    packed = gf2.pack_words(np.concatenate([code.embed(new_messages), stored, pinned, states == 1]))
    base, old, pins, stuck = packed.reshape(4, rows, -1)
    best = np.empty_like(base)
    costs = np.empty(rows, dtype=np.int64)
    step = max(1, gf2.SPAN_BLOCK // len(masking))  # rows per step: ~SPAN_BLOCK candidates
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        cand = base[part, None, :] ^ masking
        cost = np.bitwise_count(cand ^ old[part, None, :]).sum(axis=2, dtype=np.int64)
        cost[((cand ^ stuck[part, None, :]) & pins[part, None, :]).any(axis=2)] = code.n + 1
        least = cost.min(axis=1)
        if (least > code.n).any():
            raise MaskingError("no word of the new message's coset matches the stuck cell")
        tied = cost == least[:, None]
        for j in range(cand.shape[2]):  # lexicographic: word 0 first, ties narrow per word
            column = cand[:, :, j]
            smallest = np.where(tied, column, _NO_WORD).min(axis=1)
            tied &= column == smallest[:, None]
        best[part] = cand[np.arange(len(least)), tied.argmax(axis=1)]
        costs[part] = least
    return gf2.unpack_words(best, code.n), _initial_costs(stored, states), costs


def lwc_from_lrc(h_lrc) -> LinearCode:
    """Reuse a cyclic repair code's parity-check matrix as a masking generator.

    The resulting code has masking distance equal to the repair code's
    minimum distance and rewriting locality one less than the dual distance.
    """
    h_lrc = gf2.as_bit_matrix(h_lrc)
    code = LinearCode.from_parity(h_lrc, name="lwc_from_lrc")
    if not code.cyclic:
        raise ConstructionError("parity-check matrix does not define a cyclic code")
    return code


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """Distance cap n - k - ceil(k/r) + 2 for locality r."""
    if not 1 <= r <= k <= n:
        raise ValueError(f"need 1 <= r <= k <= n, got n={n}, k={k}, r={r}")
    return n - k - (-(-k // r)) + 2

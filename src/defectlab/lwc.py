"""Locally rewritable codes: localities, write costs, and LRC-based construction.

The masking code of a LinearCode (the column span of its H) determines how
cheaply a stuck cell can be compensated: a coordinate covered by a light
masking word only drags a few neighbours along when it must be rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bdc, codes, gf2
from .codes import LinearCode, gray_combinations
from .errors import (CapacityError, ConstructionError, InvariantViolation, LocalityError,
                     MaskingError)


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


def masking_codeword_ints(code: LinearCode) -> list[int]:
    """All 2^(n-k) masking words (column combinations of H) as packed ints."""
    width = code.n - code.k
    if width > codes.ENUM_CAP:
        raise CapacityError(f"n-k={width} exceeds enumeration cap {codes.ENUM_CAP}")
    return list(gray_combinations(code.h_cols_packed, width))


def _coverage_weights(code: LinearCode) -> list[int | None]:
    """Per coordinate: weight of the lightest masking word covering it."""
    best: list[int | None] = [None] * code.n
    for word in masking_codeword_ints(code):
        if not word:
            continue
        weight = word.bit_count()
        rest = word
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if best[i] is None or weight < best[i]:
                best[i] = weight
            rest ^= low
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
    uncovered = [i for i, c in enumerate(cover) if c is None]
    if uncovered:
        raise LocalityError(f"coordinates {uncovered} lie outside every masking word")
    per_coordinate = tuple(c - 1 for c in cover)
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
    stuck_nonzero = int((pattern.s == 1).sum())
    return int(codeword.sum()) - stuck_nonzero


def rewrite_update(code: LinearCode, stored, message, new_message,
                   pattern: bdc.DefectPattern) -> tuple[np.ndarray, CostReport]:
    """Re-encode an update, flipping as few cells as possible.

    Requires at most one stuck cell, and that `stored` encodes `message` and
    masks it.  Ties between equally cheap rewrites go to the lexicographically
    smallest new word.  The report holds the costs only; `lwc-audit` checks
    them against delta + r* - 1 (rewrites) and weight + r* (first writes).
    """
    message = gf2.as_bit_vector(message, code.k)
    new_message = gf2.as_bit_vector(new_message, code.k)
    stored = gf2.as_bit_vector(stored, code.n)
    if pattern.num_defects > 1:
        raise ValueError("rewrite locality arguments assume at most one stuck cell")
    if not np.array_equal(bdc.decode(code, stored), message):
        raise ValueError("stored word does not encode the current message")
    if bdc.error_count(stored, pattern):
        raise ValueError("stored word does not mask the stuck cell")

    pinned = gf2.pack_vector(pattern.s != bdc.NORMAL)
    stuck = gf2.pack_vector(pattern.s == 1)
    base = gf2.pack_vector(code.embed(new_message))
    stored_int = gf2.pack_vector(stored)
    best = None
    best_cost = code.n + 1
    for word in masking_codeword_ints(code):
        cand = base ^ word
        if (cand ^ stuck) & pinned:
            continue
        cost = (cand ^ stored_int).bit_count()
        if cost < best_cost or (cost == best_cost and gf2.precedes(cand, best)):
            best, best_cost = cand, cost
    if best is None:
        raise MaskingError("no word of the new message's coset matches the stuck cell")
    return gf2.unpack_vector(best, code.n), CostReport(initial_writing_cost(stored, pattern), best_cost)


def lwc_from_lrc(h_lrc) -> LinearCode:
    """Reuse a cyclic repair code's parity-check matrix as a masking generator.

    The resulting code has masking distance equal to the repair code's
    minimum distance and rewriting locality one less than the dual distance.
    """
    h_lrc = gf2.as_bit_matrix(h_lrc)
    code = LinearCode.from_parity(h_lrc, name="lwc_from_lrc", cyclic=True)
    if not code.closed_under_shift():
        raise ConstructionError("parity-check matrix does not define a cyclic code")
    return code


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """Distance cap n - k - ceil(k/r) + 2 for locality r."""
    if not 1 <= r <= k <= n:
        raise ValueError(f"need 1 <= r <= k <= n, got n={n}, k={k}, r={r}")
    return n - k - (-(-k // r)) + 2

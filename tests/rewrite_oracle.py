"""The Python-int rewrite scan that `lwc.rewrite_update` ran before it became a
one-row call of `lwc.rewrite_update_batch`, kept as an independent oracle.

It builds the masking words itself, as Python ints with bit j = column j,
rather than reading the code's cached word array, so it shares neither the
enumerator, the word layout nor the candidate scoring of the batch kernel.
"""

import numpy as np

from defectlab import bdc, gf2
from defectlab.errors import MaskingError


def rewrite_update_oracle(code, stored, message, new_message, pattern):
    """(new word, initial cost, rewrite cost) of the cheapest rewrite; ties go
    to the lexicographically smallest new word."""
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
    for word in masking_words_oracle(code):
        cand = base ^ word
        if (cand ^ stuck) & pinned:
            continue
        cost = (cand ^ stored_int).bit_count()
        if cost < best_cost or (cost == best_cost and gf2.precedes(cand, best)):
            best, best_cost = cand, cost
    if best is None:
        raise MaskingError("no word of the new message's coset matches the stuck cell")
    initial_cost = int(stored.sum()) - int((pattern.s == 1).sum())
    return gf2.unpack_vector(best, code.n), initial_cost, best_cost


def masking_words_oracle(code):
    """Every sum of the columns of H, built by doubling a list of ints, so
    word i sums the columns at the set bits of i."""
    words = [0]
    for column in code.H.T:
        packed = gf2.pack_vector(column)
        words += [word ^ packed for word in words]
    return words

"""Reductions between erasure quantization, write-once memories, and defects.

An erasure-quantization source over {0, 1, *} maps to a defect pattern: the
determined symbols become stuck cells the quantizer must match, the erasures
become normal cells whose content is free.  A write-once memory state maps
the same way with every stored 1 treated as stuck-at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bdc, gf2
from .codes import LinearCode
from .errors import InvariantViolation

FREE = -1


@dataclass
class BeqSource:
    """Source word over {0, 1, FREE}; FREE symbols cost nothing to quantize."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = gf2.as_ternary_vector(self.samples, "FREE")

    @property
    def n(self) -> int:
        return self.samples.shape[0]


@dataclass
class WomState:
    """Write-once memory cells; a stored 1 can never return to 0."""

    cells: np.ndarray

    def __post_init__(self):
        self.cells = gf2.as_bit_vector(self.cells)

    @property
    def n(self) -> int:
        return self.cells.shape[0]


def sample_source(n: int, alpha: float, rng: np.random.Generator) -> BeqSource:
    """Each symbol is an erasure with probability alpha, else uniform 0/1."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    erased = rng.random(n) < alpha
    values = rng.integers(0, 2, n).astype(np.int8)
    return BeqSource(np.where(erased, np.int8(FREE), values))


def beq_to_bdc(src: BeqSource) -> bdc.DefectPattern:
    """Erasures become normal cells; determined symbols become stuck cells."""
    return bdc.DefectPattern(src.samples.copy())


def quantize(code: LinearCode, src: BeqSource) -> tuple[np.ndarray, int]:
    """Quantize a source with the masking codebook; distortion counts the
    determined symbols the chosen word fails to match."""
    words, distortions = quantize_batch(code, beq_to_bdc(src).s[None])
    return words[0], int(distortions[0])


def quantize_batch(code: LinearCode, samples) -> tuple[np.ndarray, np.ndarray]:
    """`quantize` of each row of T x n source samples over {0, 1, FREE}.  A
    source row is its own defect state row, as in `beq_to_bdc`."""
    samples = gf2.as_ternary_rows(samples, code.n, None, "FREE")
    zeros = np.zeros((samples.shape[0], code.k), dtype=np.uint8)
    out = bdc.additive_encode_batch(code, zeros, samples)
    return out.codewords, out.residual_errors


def wom_states(cells) -> np.ndarray:
    """Defect states of write-once cells (one vector, or T x n rows): stored
    ones become stuck-at-1 cells, zeros stay writable."""
    return np.where(np.asarray(cells) == 1, np.int8(1), np.int8(FREE))


def wom_to_defects(state: WomState) -> bdc.DefectPattern:
    """Stored ones become stuck-at-1 cells; zeros stay writable."""
    return bdc.DefectPattern(wom_states(state.cells))


def wom_write(code: LinearCode, state: WomState, message) -> tuple[WomState, bool]:
    """Store a message without lowering any cell; on failure the state is kept."""
    message = gf2.as_bit_vector(message, code.k)
    cells, ok = wom_write_batch(code, state.cells[None], message[None])
    if not ok[0]:
        return state, False
    return WomState(cells[0]), True


def wom_write_batch(code: LinearCode, cells, messages) -> tuple[np.ndarray, np.ndarray]:
    """`wom_write` of row t of the T x k messages into row t of the T x n
    cells.  Returns the new cells, which keep the old row where a write
    failed, and which rows were written."""
    cells = gf2.as_bit_rows(cells, code.n)
    out = bdc.additive_encode_batch(code, messages, wom_states(cells))
    ok = out.success
    if (out.codewords < cells)[ok].any():
        raise InvariantViolation("write lowered a cell despite masking success")
    return np.where(ok[:, None], out.codewords, cells), ok

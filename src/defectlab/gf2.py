"""Dense GF(2) linear algebra.

Vectors and matrices are numpy arrays with 0/1 entries.  Internally rows are
packed into Python integers (bit j of a row word = column j), so a row XOR is
one word-parallel big-int operation.  `solve_packed` is the one elimination
loop: solving, rank, reduced row echelon form and inversion all run through
it.  It pivots on the first set bit of each row, scanning columns first to
last.  `pivot_columns` finds the same pivots for many masked systems on one
row list at once, bit-sliced 64 systems to a uint64 word; both Monte Carlo
simulators read their trials off it.
`span_words` is the one span enumerator: every scan of a code's codewords or
masking words reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError

#: Largest solution-space dimension that `SolutionSpace.solutions` enumerates.
SOLUTION_CAP = 20

#: Rows per block of `span_words` and candidate words per step of the rewrite
#: kernel, so each temporary holds about SPAN_BLOCK words (64 KiB at one uint64
#: per word) whatever the span's size or the batch's; a block of `pivot_columns`
#: and each of its temporaries hold about 8 SPAN_BLOCK lane words (512 KiB).
SPAN_BLOCK = 1 << 13


def _coerce(v, dtype, lo: int, ndim: int, message: str) -> np.ndarray:
    """v as an `ndim`-D `dtype` array whose entries are integers from lo to 1.

    The range is checked before the cast, so no entry wraps or rounds into
    range.  Integer input needs only its max (and, when signed, its min), so
    uint8 takes one pass and bool none; other input is compared entry by entry.
    """
    a = np.asarray(v)
    if a.ndim != ndim:
        raise ValueError(f"expected a {('vector', 'matrix')[ndim - 1]}, got shape {a.shape}")
    kind = a.dtype.kind
    if kind in "iu":
        bad = a.size and (a.max() > 1 or (kind == "i" and a.min() < lo))
    else:
        bad = kind != "b" and not ((a == lo) | (a == 0) | (a == 1)).all()
    if bad:
        raise ValueError(message)
    return np.asarray(a, dtype=dtype)


def as_bit_vector(v, length: int | None = None) -> np.ndarray:
    """Coerce to a 1-D uint8 array of 0/1 values."""
    a = _coerce(v, np.uint8, 0, 1, "entries must be 0 or 1")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected length {length}, got {a.shape[0]}")
    return a


def as_ternary_vector(v, blank: str) -> np.ndarray:
    """Coerce to a 1-D int8 array over {0, 1, -1}; `blank` names the -1 symbol
    in the error message."""
    return _coerce(v, np.int8, -1, 1, f"entries must be 0, 1, or {blank} (-1)")


def as_bit_matrix(m) -> np.ndarray:
    """Coerce to a 2-D uint8 array of 0/1 values."""
    return _coerce(m, np.uint8, 0, 2, "entries must be 0 or 1")


def _check_width(a: np.ndarray, width: int, rows: int | None) -> np.ndarray:
    if a.shape[1] != width or (rows is not None and a.shape[0] != rows):
        expected = f"{rows} x {width}" if rows is not None else f"rows of length {width}"
        raise ValueError(f"expected {expected}, got shape {a.shape}")
    return a


def as_bit_rows(m, width: int, rows: int | None = None) -> np.ndarray:
    """Coerce to a uint8 matrix of 0/1 values with `width` columns (and `rows`
    rows when given): the T rows of a batch call."""
    return _check_width(as_bit_matrix(m), width, rows)


def as_ternary_rows(m, width: int, rows: int | None, blank: str) -> np.ndarray:
    """Coerce to an int8 matrix over {0, 1, -1} with `width` columns (and
    `rows` rows when given); `blank` names the -1 symbol in the error message."""
    a = _coerce(m, np.int8, -1, 2, f"entries must be 0, 1, or {blank} (-1)")
    return _check_width(a, width, rows)


def pack_rows(m: np.ndarray) -> list[int]:
    """Pack each matrix row into an integer (bit j = column j)."""
    m = as_bit_matrix(m)
    if m.shape[1] == 0:
        return [0] * m.shape[0]
    packed = np.packbits(m, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def pack_vector(v) -> int:
    v = as_bit_vector(v)
    if v.size == 0:
        return 0
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


def unpack_vector(x: int, n: int) -> np.ndarray:
    buf = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(buf, count=n, bitorder="little")


def unpack_rows(words: Sequence[int], n: int) -> np.ndarray:
    """Inverse of `pack_rows`: one row of n bits per packed word."""
    size = (n + 7) // 8
    buf = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in words), dtype=np.uint8)
    return np.unpackbits(buf.reshape(len(words), size), axis=1, count=n, bitorder="little")


def pack_words(m) -> np.ndarray:
    """Pack each matrix row into ceil(cols / 64) uint64 words, big-endian: column
    0 is the top bit of word 0.  Comparing two rows word by word is then the
    lexicographic order of `precedes`, and a row's weight is the sum of its
    words' popcounts, for any number of columns.  `m` holds 0/1 or bools and
    is not checked: callers pass rows they have validated."""
    rows, cols = m.shape
    packed = np.zeros((rows, 8 * max(1, -(-cols // 64))), dtype=np.uint8)
    packed[:, :(cols + 7) // 8] = np.packbits(m, axis=1, bitorder="big")
    return packed.view(">u8").astype(np.uint64)


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `pack_words`: the first n bits of each row of words."""
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=n, bitorder="big")


def span_words(generators) -> Iterator[np.ndarray]:
    """All 2^g sums of the g rows of the 0/1 matrix `generators`, in the
    `pack_words` layout: row i of the walk is the XOR of the generators at the
    set bits of i.  The rows come in order, in blocks of at most SPAN_BLOCK."""
    packed = pack_words(generators)
    low = min(len(packed), SPAN_BLOCK.bit_length() - 1)
    block, offsets = _all_sums(packed[:low]), _all_sums(packed[low:])
    for offset in offsets:
        yield block ^ offset


def _all_sums(packed: np.ndarray) -> np.ndarray:
    sums = np.zeros((1, packed.shape[1]), dtype=np.uint64)
    for generator in packed:
        sums = np.concatenate([sums, sums ^ generator])  # the new top bit of the row index
    return sums


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) on float32 BLAS: a sum of fewer than 2^24 0/1
    terms is exact, its cast to int32 too, and the cast to uint8 keeps its parity."""
    if a.shape[-1] >= 1 << 24:
        raise CapacityError(f"inner dimension {a.shape[-1]} reaches 2^24: float32 sums round")
    return np.matmul(a, b, dtype=np.float32).astype(np.int32).astype(np.uint8) & 1


class PackedSolution:
    """Solution of a packed linear system, free variables forced to zero.

    `pivots` maps each pivot column to its fully reduced row, whose bit ncols
    holds the right-hand side.  When the system is inconsistent, `particular`
    still solves the subsystem of equations kept by priority order;
    `violated` lists the indices of the dropped (unsatisfiable) equations.
    Each dropped equation sums kept ones with the opposite right-hand side,
    so `particular` misses exactly the equations in `violated`.
    `particular` and the free-variable `basis` are built on first access.
    """

    def __init__(self, pivots: dict[int, int], ncols: int, violated: list[int]) -> None:
        self.pivots = pivots
        self.ncols = ncols
        self.violated = violated
        self.consistent = not violated
        self.rank = len(pivots)

    @cached_property
    def particular(self) -> int:
        return sum(1 << col for col, row in self.pivots.items() if (row >> self.ncols) & 1)

    @cached_property
    def basis(self) -> list[int]:
        basis = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            vec = 1 << free
            for col, row in self.pivots.items():
                if (row >> free) & 1:
                    vec |= 1 << col
            basis.append(vec)
        return basis


def solve_packed(rows: Sequence[int], ncols: int, rhs: int,
                 use: int | None = None) -> PackedSolution:
    """Solve rows[i] . x = bit i of rhs over GF(2) for the rows i picked by the
    set bits of `use` (every row by default).

    Rows are taken in index order and kept in reduced row echelon form; a row
    that contradicts the rows kept before it is dropped, never one of them.
    """
    if use is None:
        use = (1 << len(rows)) - 1
    aug = 1 << ncols
    pivots: dict[int, int] = {}
    violated: list[int] = []
    while use:
        low = use & -use
        use ^= low
        i = low.bit_length() - 1
        word = rows[i] | aug if rhs & low else rows[i]
        # Pivot rows are mutually reduced (set bits only at their own pivot
        # plus free columns), so one pass clears every pivot bit of `word`.
        for col, pivot_row in pivots.items():
            if (word >> col) & 1:
                word ^= pivot_row
        if not word:
            continue
        col = (word & -word).bit_length() - 1
        if col == ncols:
            violated.append(i)
            continue
        for c, pivot_row in pivots.items():
            if (pivot_row >> col) & 1:
                pivots[c] = pivot_row ^ word
        pivots[col] = word
    return PackedSolution(pivots, ncols, violated)


def pivot_columns(rows: Sequence[int], width: int, use: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The pivot columns of T masked systems on one row list, found together.

    `use` and `rhs` are T x len(rows) bools: system t takes row i when
    use[t, i], with rhs[t, i] as its bit `width`.  Row t of the T x (width + 1)
    bool result marks the pivots of `solve_packed(rows, width, rhs_t, use_t)`,
    plus column `width` exactly when that system is inconsistent.

    Every system eliminates column by column, first to last: its first row
    holding the column is the pivot and is XORed into every row holding it,
    itself included, so it drops out.  The columns found are the lowest set
    bits of the nonzero words of the rows' span, which are solve_packed's
    pivots: each of its pivot rows keeps its pivot as its lowest set bit.  The
    systems are bit-sliced, in blocks of about 8 SPAN_BLOCK uint64 words: bit b
    of entry [i, c, l] is column c of row i of system 64 l + b.
    """
    trials, m = use.shape
    found = np.zeros((width + 1, -(-trials // 64)), dtype="<u8")
    bits = unpack_rows(rows, width + 1) == 1  # column `width` is 0 in every row
    lanes, picked = _trial_lanes(use), _trial_lanes(rhs)
    block = max(1, 8 * SPAN_BLOCK // max(1, bits.size))
    for start in range(0, found.shape[1], block) if m else ():  # no rows, no pivots
        system = np.where(bits[:, :, None], lanes[:, None, start:start + block], np.uint64(0))
        system[:, width] = lanes[:, start:start + block] & picked[:, start:start + block]
        for col in range(width + 1):
            has = system[:, col]
            seen = np.bitwise_or.accumulate(has, axis=0)  # some row up to i holds col
            found[col, start:start + block] = seen[-1]
            if col < width and seen[-1].any():
                first = seen.copy()
                first[1:] ^= seen[:-1]  # row i is the first row holding col
                rest = system[:, col + 1:]
                rest ^= has[:, None] & np.bitwise_or.reduce(first[:, None] & rest, axis=0)
    return np.unpackbits(found.view(np.uint8), axis=1, count=trials, bitorder="little").view(bool).T


def _trial_lanes(a: np.ndarray) -> np.ndarray:
    """The T x m bools `a` as m x ceil(T / 64) uint64 lanes: bit t % 64 of
    lane [i, t // 64] is a[t, i]."""
    trials, m = a.shape
    padded = np.zeros((-(-trials // 64) * 64, m), dtype=np.uint8)
    padded[:trials] = a
    return np.einsum("kbi,b->ik", padded.reshape(len(padded) // 8, 8, m),
                     1 << np.arange(8, dtype=np.uint8), order="C").view("<u8")


@dataclass
class SolutionSpace:
    """Affine solution set of a GF(2) linear system.

    status is "inconsistent", "unique", or "affine"; in the affine case the
    solutions are particular + span(basis), 2**dimension of them in total.
    """

    status: str
    particular: np.ndarray | None
    basis: list[np.ndarray] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def solutions(self) -> Iterator[np.ndarray]:
        """Enumerate all solutions (2**dimension of them)."""
        if self.particular is None:
            return
        if self.dimension > SOLUTION_CAP:
            raise CapacityError(f"solution space dimension {self.dimension} exceeds "
                                f"SOLUTION_CAP = {SOLUTION_CAP}")
        for mask in range(1 << self.dimension):
            x = self.particular.copy()
            for j, vec in enumerate(self.basis):
                if (mask >> j) & 1:
                    x ^= vec
            yield x


def precedes(a: int, b: int) -> bool:
    """True when packed word a comes before b in lexicographic order, reading
    column 0 first: at their first differing column, a holds the 0."""
    diff = a ^ b
    return bool(diff) and not a & diff & -diff


def rank_packed(rows: Iterable[int]) -> int:
    """Rank over GF(2) of packed rows."""
    rows = list(rows)
    return solve_packed(rows, max(rows, default=0).bit_length(), 0).rank


def rank(m) -> int:
    """Rank over GF(2)."""
    return rank_packed(pack_rows(m))


def nullity_profile(rows: Sequence[int], width: int) -> tuple[tuple[int, ...], ...]:
    """Count row subsets by size and nullity: N[e][j] = #{E : |E| = e, e - rank(E) = j}.

    This is the rank-generating table of the binary matroid of `rows` (packed
    words of `width` bits).  A depth-first walk adds rows in index order to an
    echelon basis.  Each level keeps the untried rows reduced against the
    basis so far, so a row is independent exactly when its reduced word is
    nonzero, and undoing a step is returning from the call.  Once the basis
    reaches rank `width`, every further row is dependent, and the m untried
    rows are added in closed form: C(m, t) sets of size e + t and nullity j + t.
    """
    n = len(rows)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    binomials = [[comb(m, t) for t in range(m + 1)] for m in range(n + 1)]

    def saturate(size: int, nullity: int, untried: int) -> None:
        for t, count in enumerate(binomials[untried]):
            counts[size + t][nullity + t] += count

    def walk(rest: list[int], size: int, rank: int) -> None:
        counts[size][size - rank] += 1
        for i, row in enumerate(rest):
            if not row:
                walk(rest[i + 1:], size + 1, rank)
            elif rank + 1 < width:
                pivot = row & -row
                walk([x ^ row if x & pivot else x for x in rest[i + 1:]], size + 1, rank + 1)
            else:
                saturate(size + 1, size - rank, len(rest) - i - 1)

    if width:
        walk(list(rows), 0, 0)
    else:
        saturate(0, 0, n)
    return tuple(tuple(row) for row in counts)


def solve(a, b) -> SolutionSpace:
    """Solve A x = b over GF(2), returning the full solution space.

    The particular solution sets all free variables to zero.
    """
    a = as_bit_matrix(a)
    b = as_bit_vector(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} does not match {a.shape[0]} rows")
    ncols = a.shape[1]
    sol = solve_packed(pack_rows(a), ncols, pack_vector(b))
    if not sol.consistent:
        return SolutionSpace("inconsistent", None)
    particular = unpack_vector(sol.particular, ncols)
    basis = [unpack_vector(v, ncols) for v in sol.basis]
    return SolutionSpace("affine" if basis else "unique", particular, basis)


def nullspace(m) -> list[np.ndarray]:
    """Basis of {x : M x = 0}, with cols - rank(M) elements."""
    m = as_bit_matrix(m)
    sol = solve_packed(pack_rows(m), m.shape[1], 0)
    return [unpack_vector(v, m.shape[1]) for v in sol.basis]


def rref_with_pivots(m) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns, rows sorted by pivot."""
    m = as_bit_matrix(m)
    cols = m.shape[1]
    pivot_rows = solve_packed(pack_rows(m), cols, 0).pivots
    pivots = tuple(sorted(pivot_rows))
    reduced = np.zeros((len(pivots), cols), dtype=np.uint8)
    for i, col in enumerate(pivots):
        reduced[i] = unpack_vector(pivot_rows[col], cols)
    return reduced, pivots


def invert(m) -> np.ndarray:
    """Inverse of a square GF(2) matrix."""
    m = as_bit_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix must be square")
    # Row i carries bit n + i, so every row is kept and pivots stay below n
    # exactly when m is invertible; the reduced rows then hold the inverse.
    augmented = [row | (1 << (n + i)) for i, row in enumerate(pack_rows(m))]
    pivots = solve_packed(augmented, 2 * n, 0).pivots
    if any(col >= n for col in pivots):
        raise ValueError("matrix is singular")
    inv = np.zeros((n, n), dtype=np.uint8)
    for col, word in pivots.items():
        inv[col] = unpack_vector(word >> n, n)
    return inv

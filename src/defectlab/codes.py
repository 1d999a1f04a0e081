"""Binary linear block codes: construction and analysis.

A code is stored column-major: the generator G is n x k (codeword = G @ m),
the parity check H is n x (n-k) with H.T @ G = 0.  Cyclic families are
built from a generator polynomial given as an integer bit mask (bit i =
coefficient of x^i).  A BCH generator is the carry-less product of the
minimal polynomials of a set of cyclotomic cosets, each the product of
(x + alpha^j) over one coset in GF(2^m), using the primitive polynomials
tabulated below.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb

import numpy as np

from . import gf2
from .errors import CapacityError, ConstructionError, InvariantViolation

#: Largest dimension that is enumerated word by word.
ENUM_CAP = 24

#: Largest blocklength whose nullity profile is walked subset by subset.
EXHAUSTIVE_CAP = 20

#: Primitive polynomial per extension degree m (bit i = coefficient of x^i).
PRIMITIVE_POLYS = {
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


class LinearCode:
    """Immutable (n, k) binary linear code with cached analysis results."""

    def __init__(self, G, H=None, *, name: str = ""):
        G = gf2.as_bit_matrix(G).copy()  # frozen below; the caller's array stays writable
        n, k = G.shape
        if n == 0:
            raise ConstructionError("a code needs blocklength n >= 1, got n=0")
        if H is None:
            H = _stack_columns(gf2.nullspace(G.T), n)
        H = gf2.as_bit_matrix(H).copy()
        if H.shape != (n, n - k):
            raise ValueError(f"parity check must be {n}x{n - k}, got {H.shape}")
        if gf2.rank(G) != k:
            raise ConstructionError("generator matrix is rank deficient")
        if gf2.rank(H) != n - k:
            raise ConstructionError("parity-check matrix is rank deficient")
        if np.any(gf2.mat_mul(H.T, G)):
            raise ConstructionError("H.T @ G != 0")
        G.setflags(write=False)
        H.setflags(write=False)
        vars(self).update(G=G, H=H, n=n, k=k, name=name or f"code({n},{k})")

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearCode is immutable; cannot set {name!r}")

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __repr__(self) -> str:
        return f"LinearCode({self.n}, {self.k}, {self.name!r})"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_parity(cls, H, **meta) -> "LinearCode":
        H = gf2.as_bit_matrix(H)
        n = H.shape[0]
        if gf2.rank(H) != H.shape[1]:
            raise ConstructionError("parity-check matrix is rank deficient")
        G = _stack_columns(gf2.nullspace(H.T), n)
        return cls(G, H, **meta)

    # -- systematic form -----------------------------------------------------

    @cached_property
    def _systematic(self) -> tuple[tuple[int, ...], np.ndarray]:
        reduced, pivots = gf2.rref_with_pivots(self.G.T)
        reduced.setflags(write=False)
        return pivots, reduced

    @property
    def info_positions(self) -> tuple[int, ...]:
        """Coordinates that carry the message symbols verbatim."""
        return self._systematic[0]

    @property
    def parity_positions(self) -> tuple[int, ...]:
        info = set(self.info_positions)
        return tuple(i for i in range(self.n) if i not in info)

    @property
    def decode_map(self) -> np.ndarray:
        """k x n matrix M with M[:, info] = I and M @ H = 0, so M reads the
        message back from embed(m) ^ H @ p for every parity p."""
        return self._systematic[1]

    def embed(self, message) -> np.ndarray:
        """Place a message (or each row of a T x k batch) on the info
        positions, zeros elsewhere."""
        message = np.asarray(message)
        if message.ndim == 2:
            message = gf2.as_bit_rows(message, self.k)
        else:
            message = gf2.as_bit_vector(message, self.k)
        x = np.zeros(message.shape[:-1] + (self.n,), dtype=np.uint8)
        x[..., self._info_index] = message
        return x

    @cached_property
    def _info_index(self) -> np.ndarray:
        index = np.array(self.info_positions, dtype=np.intp)
        index.setflags(write=False)
        return index

    # -- packed caches used by the channel engines ----------------------------

    @cached_property
    def g_rows_packed(self) -> list[int]:
        return gf2.pack_rows(self.G)

    @cached_property
    def h_rows_packed(self) -> list[int]:
        return gf2.pack_rows(self.H)

    @property
    def h_nullity_profile(self) -> tuple[tuple[int, ...], ...]:
        """N[e][j]: sets of e rows of H with nullity j, shared by both channels.

        One walk over the 2^n row subsets per code, checked against the weight
        distribution before it is first returned; the cap is read every time.
        """
        if self.n > EXHAUSTIVE_CAP:
            raise CapacityError(f"exhaustive mode is capped at n <= EXHAUSTIVE_CAP = "
                                f"{EXHAUSTIVE_CAP}, got n={self.n}; use monte_carlo mode")
        return self._h_nullity_profile

    @cached_property
    def _h_nullity_profile(self) -> tuple[tuple[int, ...], ...]:
        profile = gf2.nullity_profile(self.h_rows_packed, self.n - self.k)
        _check_profile(profile, self.weight_distribution())
        return profile

    @cached_property
    def decode_rows_packed(self) -> list[int]:
        return gf2.pack_rows(self.decode_map)

    @cached_property
    def h_left_inverse(self) -> np.ndarray:
        """(n-k) x n matrix Q with Q @ H = I."""
        _, rows = gf2.rref_with_pivots(self.H.T)
        q = np.zeros((self.n - self.k, self.n), dtype=np.uint8)
        if rows:
            q[:, list(rows)] = gf2.invert(self.H[list(rows), :])
        q.setflags(write=False)
        return q

    # -- enumeration ----------------------------------------------------------

    def masking_words(self) -> np.ndarray:
        """All 2^(n-k) masking words, one row each in the `gf2.span_words`
        order (row i sums the columns of H at the set bits of i).  Built once
        per code; the cap is read on every call."""
        width = self.n - self.k
        if width > ENUM_CAP:
            raise CapacityError(f"n-k={width} exceeds enumeration cap ENUM_CAP = {ENUM_CAP}")
        return self._masking_words

    @cached_property
    def _masking_words(self) -> np.ndarray:
        words = np.concatenate(list(gf2.span_words(self.H.T)))
        words.setflags(write=False)
        return words

    def codewords(self):
        """All 2^k codewords; the i-th sums the columns of G at the set bits of i."""
        if self.k > ENUM_CAP:
            raise CapacityError(f"k={self.k} exceeds enumeration cap ENUM_CAP = {ENUM_CAP}")
        for block in gf2.span_words(self.G.T):
            yield from gf2.unpack_words(block, self.n)

    def weight_distribution(self) -> tuple[int, ...]:
        """Exact codeword counts by weight, A_0 .. A_n.

        Enumerates the smaller of the code and its dual (through the
        MacWilliams transform), so it needs k or n-k within ENUM_CAP.
        """
        if min(self.k, self.n - self.k) > ENUM_CAP:
            raise CapacityError(
                f"both k={self.k} and n-k={self.n - self.k} exceed enumeration cap "
                f"ENUM_CAP = {ENUM_CAP}")
        return self._weight_distribution

    @cached_property
    def _weight_distribution(self) -> tuple[int, ...]:
        primal = self.k <= self.n - self.k
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for block in gf2.span_words(self.G.T if primal else self.H.T):
            weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
            counts += np.bincount(weights, minlength=self.n + 1)
        counts = tuple(int(c) for c in counts)
        return counts if primal else macwilliams_transform(counts, self.n, self.n - self.k)

    def min_distance(self) -> int:
        """Smallest nonzero codeword weight."""
        if self.k == 0:
            raise ValueError("the zero code has no nonzero codewords")
        wd = self.weight_distribution()
        return next(w for w in range(1, self.n + 1) if wd[w])

    def dual(self) -> "LinearCode":
        """Swap the generator/parity-check roles."""
        return LinearCode(self.H, self.G, name=f"dual({self.name})")

    def closed_under_shift(self) -> bool:
        """True when every cyclic shift of a codeword is again a codeword."""
        shifted = np.roll(self.G, 1, axis=0)
        return gf2.rank(np.hstack([self.G, shifted])) == self.k

    cyclic = cached_property(closed_under_shift)

    def same_codewords(self, other: "LinearCode") -> bool:
        if (self.n, self.k) != (other.n, other.k):
            return False
        return gf2.rank(np.hstack([self.G, other.G])) == self.k


def _stack_columns(vectors, n: int) -> np.ndarray:
    if not vectors:
        return np.zeros((n, 0), dtype=np.uint8)
    return np.stack(vectors, axis=1)


# -- weight enumerator algebra ------------------------------------------------

def macwilliams_transform(counts, n: int, k: int) -> tuple[int, ...]:
    """Weight distribution of the dual of an (n, k) code with distribution `counts`,
    B_j = 2^-k sum_w A_w K_j(w), the Krawtchouk values by the exact recurrence
    (j+1) K_{j+1} = (n-2w) K_j - (n-j+1) K_{j-1} from K_{-1} = 0, K_0 = 1."""
    counts = tuple(int(x) for x in counts)
    if len(counts) != n + 1 or any(x < 0 for x in counts):
        raise ValueError(f"need {n + 1} nonnegative counts")
    if sum(counts) != 1 << k:
        raise ValueError(f"counts sum to {sum(counts)}, expected 2^{k}")
    totals = [0] * (n + 1)
    for w, a_w in enumerate(counts):
        if not a_w:
            continue
        prev, kraw = 0, 1
        for j in range(n + 1):
            totals[j] += a_w * kraw
            prev, kraw = kraw, ((n - 2 * w) * kraw - (n - j + 1) * prev) // (j + 1)
    out = []
    for total in totals:
        q, r = divmod(total, 1 << k)
        if r or q < 0:
            raise InvariantViolation("transform produced a non-integral count; input is corrupted")
        out.append(q)
    return tuple(out)


def _check_profile(profile, wd) -> None:
    """Check a nullity profile N[e][j] against the weight distribution A_w.

    The 2^j dependent subsets of a pattern of nullity j are the codewords
    supported inside it, so for every size e (Greene's identity)
        sum_j N[e][j] = C(n, e)  and  sum_j N[e][j] 2^j = sum_w A_w C(n-w, e-w).
    The weight distribution walks no subsets, so this route is independent of
    the profile's.  It misses changes that keep both sums; the CLI's
    --self-audit, which rebuilds every entry set by set, sees those.
    """
    n = len(wd) - 1
    for e, row in enumerate(profile):
        got = (sum(row), sum(count << j for j, count in enumerate(row)))
        want = (comb(n, e), sum(wd[w] * comb(n - w, e - w) for w in range(e + 1)))
        if got != want:
            raise InvariantViolation(
                f"nullity profile disagrees with the weight distribution at e={e}: "
                f"(patterns, supported codewords) = {got} from the profile, {want} from A_w")


# -- GF(2) polynomial arithmetic (ints, bit i = coefficient of x^i) ------------

def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = _poly_deg(b)
    while _poly_deg(a) >= db and a:
        shift = _poly_deg(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_reciprocal(p: int, deg: int) -> int:
    out = 0
    for i in range(deg + 1):
        if (p >> i) & 1:
            out |= 1 << (deg - i)
    return out


# -- GF(2^m) tables and root products -------------------------------------------

def _gf2m_tables(m: int) -> tuple[list[int], list[int]]:
    prim = PRIMITIVE_POLYS[m]
    size = 1 << m
    exp = [0] * (size - 1)
    log = [0] * size
    x = 1
    for i in range(size - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & size:
            x ^= prim
    return exp, log


def _cyclotomic_coset(s: int, n: int) -> tuple[int, ...]:
    coset = []
    x = s % n
    while x not in coset:
        coset.append(x)
        x = (x * 2) % n
    return tuple(sorted(coset))


def _root_product(exponents, exp: list[int], log: list[int]) -> int:
    """Product of (x + alpha^j) over the exponents j, alpha primitive in GF(2^m).
    Its coefficients lie in GF(2) when the exponents form a union of cyclotomic cosets."""
    order = len(exp)  # multiplicative order of alpha
    poly = [1]  # coefficients in GF(2^m), index = degree
    for j in exponents:
        # poly *= (x + alpha^j): shift up one degree, add alpha^j * poly
        scaled = [exp[(log[c] + j) % order] if c else 0 for c in poly]
        poly = [a ^ b for a, b in zip([0, *poly], [*scaled, 0])]
    out = 0
    for d, coeff in enumerate(poly):
        if coeff not in (0, 1):
            raise InvariantViolation("root product has coefficients outside GF(2)")
        if coeff:
            out |= 1 << d
    return out


# -- code families --------------------------------------------------------------

def cyclic_code(n: int, generator_poly: int, *, name: str = "") -> LinearCode:
    """Cyclic code of length n from a generator polynomial dividing x^n - 1."""
    if n < 2:
        raise ConstructionError("cyclic codes need n >= 2")
    generator_poly = int(generator_poly)
    if generator_poly <= 0:
        raise ConstructionError("generator polynomial must be a positive bit mask")
    quotient, remainder = _poly_divmod((1 << n) | 1, generator_poly)
    if remainder:
        raise ConstructionError(f"generator polynomial {bin(generator_poly)} does not divide x^{n} - 1")
    k = n - _poly_deg(generator_poly)
    if k <= 0:
        raise ConstructionError("generator polynomial leaves no message bits")
    G = np.zeros((n, k), dtype=np.uint8)
    for j in range(k):
        G[:, j] = gf2.unpack_vector(generator_poly << j, n)
    hstar = _poly_reciprocal(quotient, k)
    H = np.zeros((n, n - k), dtype=np.uint8)
    for j in range(n - k):
        H[:, j] = gf2.unpack_vector(hstar << j, n)
    return LinearCode(G, H, name=name or f"cyclic({n},{generator_poly:#b})")


def hamming(m: int) -> LinearCode:
    """Cyclic Hamming code (2^m - 1, 2^m - 1 - m), minimum distance 3."""
    if m not in PRIMITIVE_POLYS:
        raise ConstructionError(f"m must be one of {sorted(PRIMITIVE_POLYS)}")
    n = (1 << m) - 1
    return cyclic_code(n, PRIMITIVE_POLYS[m], name=f"hamming({m})")


def bch(m: int, t: int) -> LinearCode:
    """Primitive narrow-sense BCH code of length 2^m - 1 correcting t errors."""
    if m not in PRIMITIVE_POLYS:
        raise ConstructionError(f"m must be one of {sorted(PRIMITIVE_POLYS)}")
    if t < 1:
        raise ConstructionError("t must be >= 1")
    n = (1 << m) - 1
    tables = _gf2m_tables(m)
    g = 1
    for coset in sorted({_cyclotomic_coset(s, n) for s in range(1, 2 * t + 1)}):
        g = _poly_mul(g, _root_product(coset, *tables))  # one minimal polynomial per coset
    if _poly_deg(g) >= n:
        raise ConstructionError(f"bch({m},{t}) has no message bits")
    return cyclic_code(n, g, name=f"bch({m},{t})")


def repetition(n: int) -> LinearCode:
    """(n, 1) repetition code."""
    if n < 2:
        raise ConstructionError("repetition needs n >= 2")
    return cyclic_code(n, (1 << n) - 1, name=f"repetition({n})")


def single_parity(n: int) -> LinearCode:
    """(n, n-1) single parity-check code; its H column is the all-ones vector."""
    if n < 2:
        raise ConstructionError("single_parity needs n >= 2")
    return cyclic_code(n, 0b11, name=f"single_parity({n})")


def reed_muller(r: int, m: int) -> LinearCode:
    """Reed-Muller code RM(r, m) from monomial-evaluation columns."""
    if not 0 <= r <= m:
        raise ConstructionError(f"rm requires 0 <= r <= m, got r={r}, m={m}")
    n = 1 << m
    points = np.arange(n)
    variables = [((points >> i) & 1).astype(np.uint8) for i in range(m)]

    def eval_columns(max_deg):
        cols = []
        for deg in range(max_deg + 1):
            for subset in itertools.combinations(range(m), deg):
                col = np.ones(n, dtype=np.uint8)
                for i in subset:
                    col &= variables[i]
                cols.append(col)
        return np.stack(cols, axis=1)

    G = eval_columns(r)
    H = eval_columns(m - r - 1) if r < m else np.zeros((n, 0), dtype=np.uint8)
    return LinearCode(G, H, name=f"rm({r},{m})")


def lrc_pyramid(n: int, groups: int, *, name: str = "") -> LinearCode:
    """(n, n-groups) code with one even-weight parity constraint per group."""
    if groups < 1 or n % groups != 0 or n // groups < 2:
        raise ConstructionError(
            f"lrc_pyramid needs groups >= 1 dividing n with group size >= 2, got n={n}, groups={groups}")
    size = n // groups
    H = np.zeros((n, groups), dtype=np.uint8)
    for g in range(groups):
        H[g * size:(g + 1) * size, g] = 1
    return LinearCode.from_parity(H, name=name or f"lrc_pyramid({n},{groups})")


def two_block(n: int) -> LinearCode:
    """Two even-weight groups of size n/2; the masking side of one extra parity bit."""
    if n % 2 or n < 4:
        raise ConstructionError(f"two_block requires even n >= 4, got {n}")
    return lrc_pyramid(n, 2, name=f"two_block({n})")


FAMILIES = {
    "hamming": hamming,
    "bch": bch,
    "rm": reed_muller,
    "repetition": repetition,
    "single_parity": single_parity,
    "cyclic": cyclic_code,
    "two_block": two_block,
    "lrc_pyramid": lrc_pyramid,
}


def build(family: str, *params: int) -> LinearCode:
    """Construct a code family by name, e.g. build("hamming", 3)."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ConstructionError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}") from None
    return builder(*params)


# -- plain-text import/export ----------------------------------------------------

def to_text(code: LinearCode) -> str:
    """Render a code as: "n k" header, n rows of k bits (G), n rows of n-k bits (H)."""
    lines = [f"{code.n} {code.k}"]
    lines += ["".join(str(b) for b in row) for row in code.G]
    lines += ["".join(str(b) for b in row) for row in code.H]
    return "\n".join(lines) + "\n"


def from_text(text: str, *, name: str = "") -> LinearCode:
    """Parse the to_text format; the H block may be omitted."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty code file")
    try:
        n, k = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n k'") from None
    # A block of width 0 is written as n blank lines, which are skipped here.
    g_rows, h_rows = (n if k else 0), (n if n - k else 0)
    body = lines[1:]
    if len(body) not in (g_rows, g_rows + h_rows):
        raise ValueError(f"expected {g_rows} G rows (and optionally {h_rows} H rows), "
                         f"got {len(body)} rows")

    def parse_block(rows, width):
        block = np.zeros((n, width), dtype=np.uint8)
        for i, row in enumerate(rows):
            if len(row) != width or set(row) - {"0", "1"}:
                raise ValueError(f"row {i}: expected {width} bits, got {row!r}")
            block[i] = [int(ch) for ch in row]
        return block

    G = parse_block(body[:g_rows], k)
    H = parse_block(body[g_rows:], n - k) if len(body) > g_rows else None
    return LinearCode(G, H, name=name or f"code({n},{k})")


def save_code(code: LinearCode, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(code))


def load_code(path, *, name: str = "") -> LinearCode:
    with open(path, "r", encoding="ascii") as fh:
        return from_text(fh.read(), name=name)

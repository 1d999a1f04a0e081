import itertools

import numpy as np
import pytest

from defectlab import gf2
from defectlab.errors import CapacityError


def brute_force_solutions(a, b):
    """Oracle: enumerate every x in F2^cols and keep the ones with Ax = b."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    cols = a.shape[1]
    hits = []
    for bits in itertools.product([0, 1], repeat=cols):
        x = np.array(bits, dtype=np.uint8)
        if np.array_equal(gf2.mat_mul(a, x), b):
            hits.append(x)
    return hits


def test_rank_identity():
    assert gf2.rank(np.eye(4, dtype=np.uint8)) == 4


def test_rank_zero_matrix():
    assert gf2.rank(np.zeros((3, 5), dtype=np.uint8)) == 0


def test_rank_duplicate_rows():
    assert gf2.rank([[1, 1], [1, 1]]) == 1


def test_rank_transpose_agreement():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        r = int(rng.integers(1, 65))
        c = int(rng.integers(1, 65))
        m = rng.integers(0, 2, (r, c), dtype=np.uint8)
        assert gf2.rank(m) == gf2.rank(m.T)


def test_solve_identity_unique():
    space = gf2.solve(np.eye(3, dtype=np.uint8), [1, 0, 1])
    assert space.status == "unique"
    assert np.array_equal(space.particular, [1, 0, 1])
    assert space.dimension == 0


def test_solve_contradictory_rows():
    space = gf2.solve([[1], [1]], [1, 0])
    assert space.status == "inconsistent"
    assert space.particular is None


def test_solve_underdetermined():
    space = gf2.solve([[1, 1]], [1])
    assert space.status == "affine"
    assert space.dimension == 1
    sols = {tuple(x) for x in space.solutions()}
    assert sols == {(1, 0), (0, 1)}


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.solve([[1, 0], [0, 1]], [1, 0, 1])


def test_solve_free_variables_default_to_zero():
    space = gf2.solve([[1, 1, 0]], [1])
    assert np.array_equal(space.particular, [1, 0, 0])


def test_nullspace_identity_empty():
    assert gf2.nullspace(np.eye(2, dtype=np.uint8)) == []


def test_nullspace_zero_row_full():
    basis = gf2.nullspace(np.zeros((1, 3), dtype=np.uint8))
    assert len(basis) == 3


def test_nullspace_chain():
    # Oracle: all 8 vectors filtered leaves span{(1,1,1)}.
    m = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    members = brute_force_solutions(m, [0, 0])
    nonzero = [tuple(x) for x in members if x.any()]
    assert nonzero == [(1, 1, 1)]
    basis = gf2.nullspace(m)
    assert len(basis) == 1
    assert tuple(basis[0]) == (1, 1, 1)


def test_solution_space_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(120):
        rows = int(rng.integers(0, 7))
        cols = int(rng.integers(1, 8))
        a = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        b = rng.integers(0, 2, rows, dtype=np.uint8)
        expected = brute_force_solutions(a, b)
        space = gf2.solve(a, b)
        if not expected:
            assert space.status == "inconsistent"
            continue
        got = sorted(tuple(x) for x in space.solutions())
        assert got == sorted(tuple(x) for x in expected)
        assert len(expected) == 2 ** (cols - gf2.rank(a))


def test_every_combination_solves_system():
    rng = np.random.default_rng(11)
    for _ in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        b = gf2.mat_mul(a, x)
        space = gf2.solve(a, b)
        assert space.status != "inconsistent"
        for sol in space.solutions():
            assert np.array_equal(gf2.mat_mul(a, sol), b)


def test_zero_width_systems():
    a = np.zeros((3, 0), dtype=np.uint8)
    assert gf2.solve(a, [0, 0, 0]).status == "unique"
    assert gf2.solve(a, [0, 1, 0]).status == "inconsistent"
    assert gf2.rank(a) == 0


def test_no_equations_leaves_everything_free():
    space = gf2.solve(np.zeros((0, 4), dtype=np.uint8), [])
    assert space.dimension == 4
    assert np.array_equal(space.particular, [0, 0, 0, 0])


def test_solve_packed_priority_keeps_early_rows():
    # Rows: x0 = 1, x0 = 0 (conflicts), x1 = 1. Only the middle one drops.
    sol = gf2.solve_packed([0b01, 0b01, 0b10], 2, 0b101)
    assert not sol.consistent
    assert sol.violated == [1]
    assert sol.particular == 0b11


def test_invert_round_trip():
    rng = np.random.default_rng(5)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 9))
        m = rng.integers(0, 2, (n, n), dtype=np.uint8)
        if gf2.rank(m) < n:
            with pytest.raises(ValueError):
                gf2.invert(m)
            continue
        inv = gf2.invert(m)
        assert np.array_equal(gf2.mat_mul(inv, m), np.eye(n, dtype=np.uint8))
        done += 1


def test_rref_pivot_columns_are_identity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = rng.integers(0, 2, (int(rng.integers(1, 7)), int(rng.integers(1, 9))), dtype=np.uint8)
        reduced, pivots = gf2.rref_with_pivots(m)
        assert len(pivots) == gf2.rank(m)
        sub = reduced[:, list(pivots)]
        assert np.array_equal(sub, np.eye(len(pivots), dtype=np.uint8))
        # row space is preserved
        stacked = np.vstack([m, reduced])
        assert gf2.rank(stacked) == len(pivots)


def test_solution_cap_is_read_on_every_call(monkeypatch):
    space = gf2.solve(np.zeros((1, 3), dtype=np.uint8), [0])
    assert len(list(space.solutions())) == 8
    monkeypatch.setattr(gf2, "SOLUTION_CAP", 2)
    with pytest.raises(CapacityError, match="dimension 3 exceeds SOLUTION_CAP = 2"):
        list(space.solutions())


def test_mat_mul_matches_an_int64_product():
    """Against int64 arithmetic, for 1-D and 2-D operands, including an inner
    dimension of 300, where a sum can pass the uint8 range; a result stays uint8."""
    rng = np.random.default_rng(7)
    for rows, inner, cols in ((5, 7, 3), (40, 300, 9), (1, 0, 4), (3, 300, 1)):
        a = rng.integers(0, 2, (rows, inner), dtype=np.uint8)
        b = rng.integers(0, 2, (inner, cols), dtype=np.uint8)
        for x, y in ((a, b), (a[0], b), (a, b[:, 0]), (a[0], b[:, 0])):
            product = gf2.mat_mul(x, y)
            assert product.dtype == np.uint8
            assert np.array_equal(product, (x.astype(np.int64) @ y.astype(np.int64)) % 2)
    ones = np.ones((2, 300), dtype=np.uint8)
    assert gf2.mat_mul(ones, ones[0]).tolist() == [0, 0]  # a sum of 300, past the uint8 range
    assert gf2.mat_mul(ones[:, :255], ones[0, :255]).tolist() == [1, 1]


def test_mat_mul_refuses_an_inner_dimension_float32_cannot_sum_exactly():
    inner = 1 << 24  # zero-stride operands: nothing of this size is allocated
    a = np.broadcast_to(np.uint8(1), (1, inner))
    with pytest.raises(CapacityError, match="2\\^24"):
        gf2.mat_mul(a, np.broadcast_to(np.uint8(1), (inner,)))
    with pytest.raises(CapacityError, match="2\\^24"):
        gf2.mat_mul(a[0], np.broadcast_to(np.uint8(1), (inner, 2)))

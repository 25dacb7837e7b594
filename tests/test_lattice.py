import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from logskel.lattice import (
    adjugate,
    int_kernel_basis,
    rat_solve,
    snf_diagonal,
    snf_with_transforms,
    span_snf,
    SparseIntMatrix,
)
from snf_check import is_unimodular, mat_mult, snf_self_check


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_small_examples():
    u, d, v = snf_with_transforms([[2, 4], [6, 8]])
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mult(mat_mult(u, [[2, 4], [6, 8]]), v) == d
    diag = [d[0][0], d[1][1]]
    assert diag == [2, 4]  # det 8, gcd 2


def test_snf_self_check_seeded_sweep():
    rng = random.Random(11)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert snf_self_check(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_self_check_hypothesis(mat):
    assert snf_self_check(mat)


def test_snf_diagonal_matches_transform_version():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 6)
        _, d, _ = snf_with_transforms(m)
        expect = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]
        assert snf_diagonal(m) == expect


def test_sparse_snf_matches_dense():
    rng = random.Random(17)
    for _ in range(60):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        m = random_matrix(rng, rows, cols, 4)
        columns = [{i: m[i][j] for i in range(rows) if m[i][j]} for j in range(cols)]
        sparse = SparseIntMatrix(columns, rows)
        assert sorted(sparse.diagonal_snf()) == sorted(snf_diagonal(m))
        # no unit is left: a column popped without one is never crossed again
        assert not any(v in (1, -1) for col in sparse.cols.values() for v in col.values())


def test_sparse_matrix_refuses_zero_entries():
    with pytest.raises(ValueError, match="column 1 holds a zero"):
        SparseIntMatrix([{0: 1}, {0: 2, 1: 0}], 2)


def _sympy_snf_diagonal(m):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(m), domain=ZZ)
    return sorted(abs(int(snf[t, t])) for t in range(min(snf.shape)) if snf[t, t] != 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0] * 8 + [1, -1, 2, -2, 3, -3, 6, -6]),
             min_size=cols, max_size=cols), min_size=1, max_size=8)))
@example([[2, 0], [0, 3]])
@example([[0, 0, 0], [6, 0, 4], [0, 0, 0]])
@example([[1, 2, 0], [3, 0, 6], [0, 2, 2]])
# entries grew past millions of bits here when row and column sweeps interleaved
@example([[-6, 3, 0, -3, -6, -1, 0], [3, 0, 1, -6, 2, 0, 0], [0, 0, 0, 1, 1, -6, 2],
          [-2, 0, 6, 3, 1, 2, -6], [-1, -6, -1, 6, 0, 2, 2], [0, -2, -6, 0, 0, 0, -2],
          [-1, 0, 1, 0, -1, 6, 1], [0, 0, -3, 0, 1, -6, 0]])
def test_sparse_and_dense_snf_match_sympy(m):
    rows, cols = len(m), len(m[0])
    expect = _sympy_snf_diagonal(m)
    assert snf_diagonal(m) == expect
    u, d, v = snf_with_transforms(m)
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mult(mat_mult(u, m), v) == d
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert [d[t][t] for t in range(min(rows, cols)) if d[t][t]] == expect
    sparse = SparseIntMatrix([{i: m[i][j] for i in range(rows) if m[i][j]}
                              for j in range(cols)], rows)
    assert sparse.diagonal_snf() == expect
    # unit pivots remove distinct rows, one per unit of the diagonal at most
    assert len(set(sparse.pivot_rows)) == len(sparse.pivot_rows) <= expect.count(1)
    # no unit is left in the remainder: it is what the dense SNF finishes
    assert not any(v in (1, -1) for col in sparse.cols.values() for v in col.values())


def test_kernel_is_saturated():
    a = [[2, 0, -2], [0, 3, -3]]
    ker = int_kernel_basis(a)
    assert len(ker) == 1
    assert all(sum(row[i] * ker[0][i] for i in range(3)) == 0 for row in a)
    assert all(x == 1 for x in span_snf(ker)[1])  # Z-span of ker is saturated


def test_adjugate_small_examples():
    assert adjugate([[1, 2], [3, 4]]) == (-2, [[4, -2], [-3, 1]])
    assert adjugate([[2, 0], [0, 3]]) == (6, [[3, 0], [0, 2]])
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])  # one row swap
    assert adjugate([[1, 1], [1, 1]]) == (0, None)
    assert adjugate([]) == (1, [])


def test_adjugate_seeded_sweep_against_bareiss_and_sympy():
    from sympy import Matrix

    rng = random.Random(20121)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, bound=rng.choice([1, 3, 9]))
        if n > 1 and rng.random() < 0.25:  # force a dependent row
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            a[i] = [c * x for x in a[j]]
        d, adj = adjugate(a)
        assert d == oracle.det(a) == Matrix(a).det()
        if d == 0:
            singular += 1
            assert adj is None
            continue
        scaled = [[d if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mult(a, adj) == scaled and mat_mult(adj, a) == scaled
    assert 40 <= singular <= 260  # both branches are exercised


def _random_system(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    a = random_matrix(rng, m, n, bound=4)
    x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    b = [sum(r * t for r, t in zip(row, x)) for row in a]
    kind = rng.choice(["consistent", "deficient", "inconsistent"])
    if kind != "consistent" and m > 1:  # a combination of two rows
        i, j = rng.sample(range(m), 2)
        c = rng.choice([-2, -1, 1, 2])
        a[i] = [c * y for y in a[j]]
        b[i] = c * b[j] + (rng.randint(1, 3) if kind == "inconsistent" else 0)
    if rng.random() < 0.3:  # Fraction entries in the matrix too
        k = rng.randint(2, 5)
        a = [[Fraction(y, k) for y in row] for row in a]
        b = [Fraction(y, k) for y in b]
    return a, b


def test_rat_solve_seeded_sweep_against_fraction_oracle():
    from sympy import Matrix

    rng = random.Random(20122)
    outcomes = {"none": 0, "unique": 0, "free": 0}
    for _ in range(400):
        a, b = _random_system(rng)
        got = rat_solve(a, b)
        assert got == oracle.rat_solve(a, b)
        if got is None:
            outcomes["none"] += 1
            continue
        assert all(type(t) is Fraction for t in got)
        assert [sum(r * t for r, t in zip(row, got)) for row in a] == b
        outcomes["unique" if Matrix(a).rank() == len(a[0]) else "free"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_rat_solve_edge_cases():
    assert rat_solve([[0, 0]], [0]) == [0, 0]
    assert rat_solve([[0, 0]], [1]) is None
    assert rat_solve([[2, 4]], [Fraction(1, 3)]) == [Fraction(1, 6), 0]
    assert rat_solve([], []) == []

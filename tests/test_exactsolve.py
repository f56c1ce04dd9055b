import itertools
import random

from fractions import Fraction

from glim.exactsolve import (
    hermite_basis,
    integer_solve,
    lp_feasible,
    nonneg_integer_solve,
    rational_solve,
    smith_form,
    smith_normal_form,
    xgcd,
)


def test_xgcd_identity():
    for a in range(-8, 9):
        for b in range(-8, 9):
            g, s, t = xgcd(a, b)
            assert g == s * a + t * b
            assert g >= 0


def _matmul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_snf_randomized():
    rng = random.Random(7)
    for _ in range(250):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        S, U, V = smith_normal_form(A)
        assert _matmul(_matmul(U, A), V) == S
        diag = [S[i][i] for i in range(min(m, k))]
        for i in range(m):
            for j in range(k):
                if i != j:
                    assert S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert all(d >= 0 for d in diag)


def test_hermite_basis_spans_diagonal_sublattice():
    B = hermite_basis([[2, 0], [0, 2], [1, 1]])
    assert len(B) == 2
    # lattice contains (1,1) and (2,0): index 2 in Z^2
    det = B[0][0] * B[1][1]
    assert abs(det) == 2


def test_integer_solve_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
        x0 = [rng.randint(-4, 4) for _ in range(k)]
        b = [sum(A[i][j] * x0[j] for j in range(k)) for i in range(m)]
        x = integer_solve(A, b, smith_form(A))
        assert x is not None
        assert [sum(A[i][j] * x[j] for j in range(k)) for i in range(m)] == b


def test_integer_solve_detects_infeasible():
    assert integer_solve([[2]], [1], smith_form([[2]])) is None
    assert integer_solve([[2, 4]], [3], smith_form([[2, 4]])) is None


def test_rational_solve_modes():
    assert rational_solve([[2]], [1]) == ("unique", [Fraction(1, 2)])
    status, _ = rational_solve([[1, 1]], [3])
    assert status == "underdetermined"
    status, _ = rational_solve([[1], [1]], [1, 2])
    assert status == "inconsistent"


def test_lp_feasible_simple():
    ok, x = lp_feasible([[Fraction(1), Fraction(1)]], [Fraction(3)], [None, None])
    assert ok and x[0] + x[1] == 3 and all(v >= 0 for v in x)
    ok, _ = lp_feasible([[Fraction(1)]], [Fraction(-2)], [None])
    assert not ok
    ok, _ = lp_feasible([[Fraction(1)]], [Fraction(5)], [Fraction(4)])
    assert not ok


def _full_column_rank_systems(rng, count):
    """Square and tall systems of full column rank whose unique rational
    solution y/d is nonnegative, negative or fractional."""
    out = []
    while len(out) < count:
        k = rng.randint(1, 3)
        m = rng.randint(k, k + 2)
        A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        y = [rng.randint(-2, 6) for _ in range(k)]
        d = rng.choice([1, 1, 2, 3])
        b = [sum(a * v for a, v in zip(row, y)) for row in A]
        A = [[d * a for a in row] for row in A]
        if rational_solve(A, b)[0] == "unique":
            out.append((A, b))
    return out


def test_nonneg_integer_solve_against_enumeration():
    rng = random.Random(3)
    systems = []
    for _ in range(150):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        systems.append((A, b))
    systems += _full_column_rank_systems(rng, 150)
    seen = set()
    for A, b in systems:
        m, k = len(A), len(A[0])
        got = nonneg_integer_solve(A, b, smith_form(A))
        status, x = rational_solve(A, b)
        if status == "unique":
            integral = all(v.denominator == 1 for v in x)
            nonneg = integral and all(v >= 0 for v in x)
            assert got == ([int(v) for v in x] if nonneg else None)
            seen.add((m == k, integral, nonneg))
        if got is not None:
            assert all(v >= 0 for v in got)
            assert [sum(A[i][j] * got[j] for j in range(k)) for i in range(m)] == b
        else:
            # spot-check no small solution was missed
            for v in itertools.product(range(7), repeat=k):
                assert any(
                    sum(A[i][j] * v[j] for j in range(k)) != b[i] for i in range(m)
                )
    # square and tall; unique solution nonnegative, negative and fractional
    assert seen >= {
        (square, integral, nonneg)
        for square in (True, False)
        for integral, nonneg in ((True, True), (True, False), (False, False))
    }


def test_nonneg_integer_solve_unbounded_direction():
    # x - y = t is solvable for every integer t despite the unbounded fiber
    assert nonneg_integer_solve([[1, -1]], [-3], smith_form([[1, -1]])) == [0, 3]
    assert nonneg_integer_solve([[1, -1]], [5], smith_form([[1, -1]])) is not None
    # parity obstruction: x + y even-coordinates trap
    assert nonneg_integer_solve([[2, 2]], [3], smith_form([[2, 2]])) is None

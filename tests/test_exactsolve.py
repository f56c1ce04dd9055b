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
    ok, x = lp_feasible([[1, 1]], [3], [None, None])
    assert ok and x[0] + x[1] == 3 and all(v >= 0 for v in x)
    ok, _ = lp_feasible([[1]], [-2], [None])
    assert not ok
    ok, _ = lp_feasible([[1]], [5], [4])
    assert not ok


def test_lp_feasible_empty_box():
    # a negative upper bound leaves no point, with or without equality rows
    assert lp_feasible([], [], [-3]) == (False, None)
    assert lp_feasible([], [], [None, 2, -1]) == (False, None)
    assert lp_feasible([[1, 1]], [0], [None, -1]) == (False, None)
    assert lp_feasible([], [], [0]) == (True, [0])


def _fraction_lp_feasible(
    rows: list[list[Fraction]],
    b: list[Fraction],
    upper: list[Fraction | None],
) -> tuple[bool, list[Fraction] | None]:
    """The phase-I simplex on a tableau of Fractions, with the same Bland
    rule as ``lp_feasible``: the reference its fraction-free tableau must
    match."""
    n = len(upper)
    eq_rows = [list(r) for r in rows]
    eq_b = list(b)
    for i in range(len(eq_rows)):
        if eq_b[i] < 0:
            eq_rows[i] = [-x for x in eq_rows[i]]
            eq_b[i] = -eq_b[i]
    bound_idx = [i for i in range(n) if upper[i] is not None]
    m_eq = len(eq_rows)
    m_bd = len(bound_idx)
    m = m_eq + m_bd
    nslack = m_bd
    nart = m_eq
    width = n + nslack + nart
    T = [[Fraction(0)] * (width + 1) for _ in range(m)]
    basis = [0] * m
    for i in range(m_eq):
        for j in range(n):
            T[i][j] = eq_rows[i][j]
        T[i][n + nslack + i] = Fraction(1)
        T[i][width] = eq_b[i]
        basis[i] = n + nslack + i
    for r, i in enumerate(bound_idx):
        row = m_eq + r
        T[row][i] = Fraction(1)
        T[row][n + r] = Fraction(1)
        T[row][width] = Fraction(upper[i])
        basis[row] = n + r
    # objective: minimize sum of artificials -> reduced row = sum of eq rows
    z = [Fraction(0)] * (width + 1)
    for i in range(m_eq):
        for j in range(width + 1):
            z[j] += T[i][j]
    for j in range(n + nslack, width):
        z[j] = Fraction(0)

    while True:
        enter = None
        for j in range(n + nslack):  # artificials never re-enter
            if z[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][width] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded in phase I cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-I simplex reported unbounded")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if z[enter]:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, T[leave])]
        basis[leave] = enter

    if z[width] != 0:
        return False, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][width]
    return True, x


def test_lp_feasible_matches_the_fraction_tableau():
    # the fraction-free pivots visit the bases of the Fraction tableau, so
    # feasibility and the returned vertex are equal on every system
    rng = random.Random(30)
    feasible = 0
    for _ in range(2500):
        m = rng.randint(0, 4)
        n = rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-8, 8) for _ in range(m)]
        upper = [rng.choice([None, rng.randint(0, 5)]) for _ in range(n)]
        got = lp_feasible(A, b, upper)
        want = _fraction_lp_feasible(
            [[Fraction(v) for v in r] for r in A],
            [Fraction(v) for v in b],
            [None if u is None else Fraction(u) for u in upper],
        )
        assert got == want, (A, b, upper)
        feasible += got[0]
    assert 500 < feasible < 2000


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

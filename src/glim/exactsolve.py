"""Exact integer and rational linear algebra kernels.

Everything here runs over Python ints: Smith/Hermite normal forms for
lattice questions, a fraction-free phase-I simplex, and a complete
branch-and-bound for nonnegative integer feasibility.  ``Fraction`` appears
only in the points that ``lp_feasible`` and ``rational_solve`` return.  The
branch-and-bound is made terminating by the Borosh-Treybig bound: if
``A x = b`` has a solution in nonnegative integers it has one whose entries
are at most ``(ncols+1) * D`` where ``D`` bounds the subdeterminants of the
augmented matrix (we use a Hadamard-style product of column norms).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_basis(rows: list[list[int]]) -> list[list[int]]:
    """Row-echelon basis (Hermite-style) of the lattice spanned by ``rows``."""
    if not rows:
        return []
    k = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    pivot_row = 0
    for col in range(k):
        idx = None
        for i in range(pivot_row, len(work)):
            if work[i][col]:
                idx = i
                break
        if idx is None:
            continue
        work[pivot_row], work[idx] = work[idx], work[pivot_row]
        for i in range(pivot_row + 1, len(work)):
            while work[i][col]:
                g, s, t = xgcd(work[pivot_row][col], work[i][col])
                a, b = work[pivot_row][col], work[i][col]
                new_top = [s * x + t * y for x, y in zip(work[pivot_row], work[i])]
                new_bot = [
                    -(b // g) * x + (a // g) * y
                    for x, y in zip(work[pivot_row], work[i])
                ]
                work[pivot_row], work[i] = new_top, new_bot
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        pivot_row += 1
    basis = [r for r in work[:pivot_row] if any(r)]
    return basis


def smith_normal_form(
    rows: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with U*A*V = S diagonal, diagonal divisibility chain."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def row_op(i: int, j: int, a: int, b: int, c: int, d: int):
        # rows i,j <- (a*ri + b*rj, c*ri + d*rj); ad - bc = +-1
        A[i], A[j] = (
            [a * x + b * y for x, y in zip(A[i], A[j])],
            [c * x + d * y for x, y in zip(A[i], A[j])],
        )
        U[i], U[j] = (
            [a * x + b * y for x, y in zip(U[i], U[j])],
            [c * x + d * y for x, y in zip(U[i], U[j])],
        )

    def col_op(i: int, j: int, a: int, b: int, c: int, d: int):
        for row in A:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]
        for row in V:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    t = 0
    while t < min(m, k):
        # find a pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, k):
                if A[i][j] and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    a, b = A[t][t], A[i][t]
                    if b % a == 0:
                        row_op(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, s, u = xgcd(a, b)
                        row_op(t, i, s, u, -(b // g), a // g)
            for j in range(t + 1, k):
                if A[t][j]:
                    a, b = A[t][t], A[t][j]
                    if b % a == 0:
                        col_op(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, s, u = xgcd(a, b)
                        col_op(t, j, s, u, -(b // g), a // g)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            if any(A[t][j] for j in range(t + 1, k)):
                continue
            # divisibility: A[t][t] must divide every remaining entry
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, k):
                    if A[i][j] % A[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, 1, 1, 0, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def smith_form(rows: list[list[int]]):
    """The Smith form of A as immutable tuples (diagonal, U, V): U*A*V is
    diagonal with the given entries (one per row, 0 past the columns), in a
    divisibility chain.  A fixed system can keep it and pass it to the
    solvers below."""
    S, U, V = smith_normal_form(rows)
    k = len(V)
    diag = tuple(S[i][i] if i < k else 0 for i in range(len(S)))
    return diag, tuple(map(tuple, U)), tuple(map(tuple, V))


def _smith_solve(b: list[int], smith) -> tuple[list[int] | None, int]:
    """One integer solution of A x = b (None if none exists) and the rank of
    A, from ``smith``, A's ``smith_form``."""
    diag, U, V = smith
    rank = sum(1 for d in diag if d)
    y = [0] * len(V)
    for i, (d, u) in enumerate(zip(diag, U)):
        c = sum(map(mul, u, b))
        if d:
            if c % d:
                return None, rank
            y[i] = c // d
        elif c:
            return None, rank
    return [sum(map(mul, v, y)) for v in V], rank


def integer_solve(rows, b: list[int], smith) -> list[int] | None:
    """One integer solution x of A x = b, or None if none exists; ``smith``
    is A's ``smith_form``."""
    if not rows:
        return []
    return _smith_solve(b, smith)[0]


def rational_solve(rows, b) -> tuple[str, list[Fraction] | None]:
    """Solve A x = b over Q.

    Returns ("inconsistent", None), ("unique", x), or ("underdetermined", x0)
    where x0 is one particular solution.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(b[i])] for i in range(m)]
    pivots: list[int] = []
    r = 0
    for col in range(k):
        piv = None
        for i in range(r, m):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][col]
        aug[r] = [x / lead for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][k] != 0:
            return "inconsistent", None
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = aug[i][k]
    if len(pivots) == k:
        return "unique", x
    return "underdetermined", x


def lp_feasible(
    rows: list[list[int]],
    b: list[int],
    upper: list[int | None],
) -> tuple[bool, list[Fraction] | None]:
    """Exact phase-I simplex for {A x = b, 0 <= x, x_i <= upper_i}, all ints.

    Returns (feasible, x) with x a basic feasible point when feasible; a
    negative upper bound is an empty box.  Bland's rule guarantees
    termination.

    The tableau is fraction-free (Edmonds' integer-preserving pivots; Bareiss,
    Math. Comp. 22, 1968): it holds den times the rational tableau, where
    den > 0 is the last pivot (1 at the start).  A pivot maps every other
    row, objective included, to (row*piv - row[enter]*T[leave]) // den and
    then sets den = piv.  The division is exact because each entry is a minor
    of the initial integer matrix; signs and cross-multiplied ratios are the
    rational tableau's, so the same bases are visited.
    """
    if any(u is not None and u < 0 for u in upper):
        return False, None
    n = len(upper)
    bound_idx = [i for i in range(n) if upper[i] is not None]
    m_eq = len(rows)
    nslack = len(bound_idx)
    m = m_eq + nslack
    width = n + nslack + m_eq
    T = [[0] * (width + 1) for _ in range(m)]
    basis = [0] * m
    for i in range(m_eq):
        sign = -1 if b[i] < 0 else 1
        T[i][:n] = [sign * x for x in rows[i]]
        T[i][n + nslack + i] = 1
        T[i][width] = sign * b[i]
        basis[i] = n + nslack + i
    for r, i in enumerate(bound_idx):
        row = m_eq + r
        T[row][i] = 1
        T[row][n + r] = 1
        T[row][width] = upper[i]
        basis[row] = n + r
    # objective: minimize sum of artificials -> reduced row = sum of eq rows
    z = [sum(T[i][j] for i in range(m_eq)) for j in range(width + 1)]
    for j in range(n + nslack, width):
        z[j] = 0

    den = 1
    while True:
        enter = None
        for j in range(n + nslack):  # artificials never re-enter
            if z[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        for i in range(m):
            # Bland: least ratio T[i][width] / T[i][enter], then least basis[i]
            if T[i][enter] > 0 and (leave is None or (
                T[i][width] * T[leave][enter], basis[i]
            ) < (T[leave][width] * T[i][enter], basis[leave])):
                leave = i
        if leave is None:
            # unbounded in phase I cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-I simplex reported unbounded")
        top = T[leave]
        piv = top[enter]
        for i in range(m):
            if i != leave:
                f = T[i][enter]
                T[i] = [(x * piv - f * y) // den for x, y in zip(T[i], top)]
        f = z[enter]
        z = [(x * piv - f * y) // den for x, y in zip(z, top)]
        den = piv
        basis[leave] = enter

    if z[width] != 0:
        return False, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][width], den)
    return True, x


def _borosh_treybig_cap(rows: list[list[int]], b: list[int]) -> int:
    """Box bound for nonnegative integer solutions of A x = b."""
    n = len(rows[0]) if rows else 0
    cap = 1
    cols = [[r[j] for r in rows] for j in range(n)] + [list(b)]
    for col in cols:
        s = sum(abs(x) for x in col)
        if s > 1:
            cap *= s
    return (n + 1) * cap


def nonneg_integer_solve(rows, b: list[int], smith) -> list[int] | None:
    """Complete decision for {x in Z^n : A x = b, x >= 0}; returns a witness.
    ``smith`` is A's ``smith_form``."""
    n = len(rows[0]) if rows else 0
    if n == 0:
        return [] if all(v == 0 for v in b) else None
    if all(v == 0 for v in b):
        return [0] * n
    x, rank = _smith_solve(b, smith)
    if x is None:
        return None
    if rank == n:
        # full column rank: the integer solution is the only rational one
        return x if all(v >= 0 for v in x) else None

    cap = _borosh_treybig_cap(rows, b)
    stack: list[tuple[list[int], list[int | None]]] = [([0] * n, [None] * n)]
    while stack:
        lo, hi = stack.pop()
        shifted_b = [v - sum(map(mul, r, lo)) for r, v in zip(rows, b)]
        upper = [None if h is None else h - l for l, h in zip(lo, hi)]
        ok, y = lp_feasible(rows, shifted_b, upper)
        if not ok:
            continue
        x = [l + v for l, v in zip(lo, y)]
        frac_j = None
        for j in range(n):
            if x[j].denominator != 1:
                frac_j = j
                break
        if frac_j is None:
            return [int(v) for v in x]
        # x >= lo >= 0, so the fractional coordinate f is positive
        f = x[frac_j]
        lo_up = list(lo)
        lo_up[frac_j] = int(f) + 1
        hi_up = list(hi)
        if hi_up[frac_j] is None:
            hi_up[frac_j] = cap
        hi_dn = list(hi)
        hi_dn[frac_j] = int(f)
        stack.append((lo_up, hi_up))
        stack.append((lo, hi_dn))
    return None

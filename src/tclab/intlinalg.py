"""Exact linear algebra over Z, F_p and Q.

Everything here works on small dense matrices represented as lists of
lists of Python ints; over Q they are integers over a denominator, solved
by Bareiss elimination, with Fractions only at the frac_* entries.  No
floating point anywhere; transforms are kept unimodular so results can be
certified exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_copy(m: Matrix) -> Matrix:
    return [list(row) for row in m]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    n, k = len(a), len(a[0])
    assert not b or len(b) == k
    cols = len(b[0]) if b else 0
    out = zeros(n, cols)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(cols):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def det(m: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(m)
    if n == 0:
        return 1
    a = mat_copy(m)
    return _bareiss(a, n) * a[-1][n - 1]


def bareiss_solve(m: Matrix, b: list[int]) -> tuple[list[int], int]:
    """Integers y and d != 0 with m @ (y / d) = b, for a square integer
    matrix m and an integer vector b; ZeroDivisionError if m is singular.

    Bareiss elimination on [m | b] leaves an upper triangular system whose
    last pivot d is +-det m, so d times the solution is integral by
    Cramer's rule and back substitution divides exactly."""
    n = len(m)
    a = [list(row) + [v] for row, v in zip(m, b)]
    d = _bareiss(a, n) and a[-1][n - 1]
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (d * a[i][n] - sum(a[i][j] * y[j] for j in range(i + 1, n))) // a[i][i]
    return y, d


def bareiss_inverse(m: Matrix) -> tuple[Matrix, int]:
    """Integers V and d >= 1 with m^-1 = V / d in lowest terms, for a
    square integer matrix m; ZeroDivisionError if m is singular.  One
    bareiss_solve per unit column: its pivots depend on m alone, so every
    column comes over the same d = +-det m, and one gcd reduces."""
    sols = [bareiss_solve(m, e) for e in identity(len(m))]
    d = sols[0][1]
    g = math.gcd(d, *(y for ys, _ in sols for y in ys)) * (1 if d > 0 else -1)
    return transpose([[y // g for y in ys] for ys, _ in sols]), d // g


def _bareiss(a: Matrix, n: int) -> int:
    """Fraction-free Bareiss elimination, in place, on the first n columns
    of the n rows a (which may be longer, e.g. an augmented column).
    Returns the sign of the row swaps made, or 0 if some column has no
    pivot (then det = 0); otherwise a[n-1][n-1] is that sign times the
    determinant of the first n columns."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, len(a[i])):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign


class FinAbGroup:
    """Finite abelian group in Smith normal form.

    invariant_factors is the ascending divisibility chain d_1 | d_2 | ...,
    all >= 2; the trivial group has an empty list.  Factors equal to 1 are
    dropped on construction.  Groups compare and hash by their factors and
    are not modified after construction.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors=()):
        facs = tuple(int(d) for d in invariant_factors if int(d) != 1)
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors violate divisibility: {facs}")
        if any(d < 2 for d in facs):
            raise ValueError(f"invariant factors must be >= 2 or absent: {facs}")
        self.invariant_factors = facs

    def __eq__(self, other):
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return f"FinAbGroup({self.invariant_factors})"

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def p_rank(self, p: int) -> int:
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def p_primary(self, p: int) -> "FinAbGroup":
        facs = []
        for d in self.invariant_factors:
            pk = 1
            while d % p == 0:
                pk *= p
                d //= p
            if pk > 1:
                facs.append(pk)
        return FinAbGroup(tuple(facs))

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g: the triple of
    the extended Euclidean loop, with gcd and inverse computed in C.

    For b != 0, x is the inverse of a/g modulo m = |b|/g in (-m/2, m/2],
    except x = -1 for m = 2 and b < 0, so |x| <= |b|/(2g); and y = (g -
    a x)/b.  For b = 0 it is (|a|, 1, 0), or (-a, -1, 0) for a < 0."""
    if not b:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g = math.gcd(a, b)
    m = abs(b) // g
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return g, x, (g - a * x) // b


def _min_pivot(a: Matrix, t: int):
    """The first entry of least nonzero |entry| in the trailing block
    starting at (t, t), rows first; the first +-1 met is one."""
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            v = row[j]
            if v and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
                if v == 1 or v == -1:
                    return best
    return best


def smith_normal_form(m: Matrix,
                      with_v: bool = True) -> tuple[Matrix, Matrix, Matrix | None, Matrix]:
    """Return (d, u, v, u_inv) with u*m*v = d diagonal, divisibility chain
    on the diagonal, u and v unimodular, and u_inv the inverse of u.  With
    with_v=False, v is None and its column operations are skipped; d, u
    and u_inv are the same, since v never feeds back into them.

    Classic minimal-pivot reduction: at each step the smallest nonzero
    entry of the trailing block is moved to the pivot and used to reduce
    its row and column.  Since the pivot's absolute value strictly drops
    whenever a remainder survives, entries stay small and the loop
    terminates.  A +-1 pivot divides everything, so it needs no
    divisibility check.  Each row operation E on u is undone on the
    columns of u_inv (u_inv <- u_inv E^-1), so u_inv stays exact without a
    solve.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = mat_copy(m)
    u = identity(rows)
    # The columns of u_inv and of v, so that column operations on them are
    # operations on these lists.
    ui_cols = identity(rows)
    v_cols = identity(cols) if with_v else None
    t = 0
    while t < min(rows, cols):
        piv = _min_pivot(a, t)
        if piv is None:
            break
        i, j, _ = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            ui_cols[t], ui_cols[i] = ui_cols[i], ui_cols[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            if with_v:
                v_cols[t], v_cols[j] = v_cols[j], v_cols[t]
        # One reduction sweep; if any remainder survives it becomes the
        # new (strictly smaller) pivot on the next pass.
        at, ut, pivot = a[t], u[t], a[t][t]
        clean = True
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], at)]
                u[i] = [x - q * y for x, y in zip(u[i], ut)]
                ui_cols[t] = [x + q * y for x, y in zip(ui_cols[t], ui_cols[i])]
                if a[i][t]:
                    clean = False
        # Only rows with an entry in column t change under column operations.
        live = [row for row in a[t:] if row[t]]
        for j in range(t + 1, cols):
            if at[j]:
                q = at[j] // pivot
                for row in live:
                    row[j] -= q * row[t]
                if with_v:
                    v_cols[j] = [x - q * y for x, y in zip(v_cols[j], v_cols[t])]
                if at[j]:
                    clean = False
        if not clean:
            continue
        # Pivot must divide the whole trailing block for the chain; if
        # not, fold the offending row in and re-pivot.
        offender = None if pivot in (1, -1) else next(
            (i for i in range(t + 1, rows) if any(x % pivot for x in a[i][t + 1:])), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(at, a[offender])]
            u[t] = [x + y for x, y in zip(ut, u[offender])]
            ui_cols[offender] = [x - y for x, y in zip(ui_cols[offender], ui_cols[t])]
            continue
        if pivot < 0:
            a[t] = [-x for x in at]
            u[t] = [-x for x in ut]
            ui_cols[t] = [-x for x in ui_cols[t]]
        t += 1
    return a, u, transpose(v_cols) if with_v else None, transpose(ui_cols)


class Presentation:
    """Z^n modulo a lattice of relations, in Smith normal form.

    The class of an exponent vector x has invariant-factor coordinates
    (U x)_i modulo diag[i]; the factors with diag[i] == 1 are trivial.
    Column i of U^-1 is the exponent vector of the i-th factor's
    generator.
    """

    __slots__ = ("group", "U", "U_inv", "diag")

    def __init__(self, group: FinAbGroup, U: Matrix, U_inv: Matrix, diag: list[int]):
        self.group = group
        self.U = U
        self.U_inv = U_inv
        self.diag = diag

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    def coords(self, vec: list[int]) -> tuple[int, ...]:
        """Coordinates of the class of vec on the nontrivial factors."""
        y = mat_vec(self.U, vec)
        return tuple(y[i] % d for i, d in enumerate(self.diag) if d > 1)

    def p_indices(self, p: int) -> list[int]:
        """Indices of the factors whose order is divisible by p."""
        return [i for i, d in enumerate(self.diag) if d % p == 0]

    def generator(self, i: int) -> list[int]:
        return [row[i] for row in self.U_inv]


def present(relations: Matrix, n: int) -> Presentation:
    """Z^n modulo the row span of relations (rows of length n).

    Raises ValueError unless the quotient is finite.
    """
    if n == 0:
        return Presentation(FinAbGroup(), [], [], [])
    d, u, _, u_inv = smith_normal_form(transpose(relations), with_v=False)
    diag = [d[i][i] if i < len(d) and i < len(d[0]) else 0 for i in range(n)]
    if 0 in diag:
        raise ValueError("relations do not present a finite group")
    return Presentation(FinAbGroup(tuple(sorted(x for x in diag if x > 1))), u, u_inv, diag)


# ---------------------------------------------------------------------------
# Enumeration


def shell(n: int, h: int):
    """Vectors in Z^n with max |entry| == h, in itertools.product order."""
    return (v for v in product(range(-h, h + 1), repeat=n) if max(map(abs, v)) == h)


def _gram_schmidt_row(G: Matrix, d: list[int], lam: Matrix, k: int) -> None:
    """Integral Gram-Schmidt for the vector b_k of the Gram matrix G, the
    rows before k done: lam[k][j] = d[j+1] mu_kj for j < k, and d[k+1], the
    Gram determinant of b_0, ..., b_k (Cohen, GTM 138, Alg. 2.6.7, step 2).
    Every division is exact."""
    for j in range(k + 1):
        u = G[k][j]
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        else:
            if u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            d[k + 1] = u


def lll(gram: Matrix) -> tuple[Matrix, Matrix]:
    """Integral LLL reduction (delta = 3/4) of the lattice with positive
    definite integer Gram matrix gram (Cohen, GTM 138, Alg. 2.6.7).

    Returns (G, T) with T unimodular, G = T^t gram T, and the columns of T
    the reduced basis in the input coordinates.  Only integers occur: d[i]
    is the Gram determinant of the first i vectors and lam[k][j] =
    d[j+1] mu_kj."""
    n = len(gram)
    G = mat_copy(gram)
    T = identity(n)
    d = [1] + [0] * n
    lam = zeros(n, n)

    def reduce(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        # b_k -= q b_l, on T's columns and on G's row and column k.
        for row in T:
            row[k] -= q * row[l]
        for i in range(n):
            G[k][i] -= q * G[l][i]
        G[k][k] -= q * G[k][l]
        for i in range(n):
            G[i][k] = G[k][i]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        for row in T:
            row[k], row[k - 1] = row[k - 1], row[k]
        G[k], G[k - 1] = G[k - 1], G[k]
        for row in G:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lm = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (B * t + lm * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        _gram_schmidt_row(G, d, lam, 0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            _gram_schmidt_row(G, d, lam, k)
        reduce(k, k - 1)
        # Lovasz condition d_k d_(k-2) >= (3/4) d_(k-1)^2 - lam^2, times 4.
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return G, T


def _completed_squares(gram: Matrix) -> tuple[list[int], Matrix, int, int]:
    """(a, C, D, m D^2) for the positive definite integer Gram matrix gram,
    completed into squares in integers by the Gram-Schmidt recurrence of
    lll.  With d_k the leading k x k minor of gram and lam_ji = d_(i+1)
    mu_ji, Q(x) = sum_i q_ii (x_i + sum_(j>i) q_ij x_j)^2 for q_ii =
    d_(i+1) / d_i and q_ij = lam_ji / d_(i+1).  m and D are the least
    common denominators of those quotients in lowest terms, found by gcd
    alone: q_ii = a_i / m and q_ij = C_ij / D, with C[i] the list of C_ij
    for j > i.  No Fraction is built."""
    n = len(gram)
    d, lam = [1] + [0] * n, zeros(n, n)
    for k in range(n):
        _gram_schmidt_row(gram, d, lam, k)
    m = math.lcm(*(d[i] // math.gcd(d[i + 1], d[i]) for i in range(n)))
    D = math.lcm(*(d[i + 1] // math.gcd(lam[j][i], d[i + 1])
                   for i in range(n) for j in range(i + 1, n)))
    a = [d[i + 1] * m // d[i] for i in range(n)]
    C = [[lam[j][i] * D // d[i + 1] for j in range(i + 1, n)] for i in range(n)]
    return a, C, D, m * D * D


def fincke_pohst(gram: Matrix, bound):
    """(x, x^t gram x) for every nonzero x in Z^n with x^t gram x <= bound,
    one of each pair +-x (the last nonzero coordinate is positive), for a
    positive definite integer Gram matrix (Fincke & Pohst, Math. Comp. 44,
    1985; Cohen, GTM 138, Alg. 2.7.5), in increasing order of (x_(n-1),
    ..., x_0).

    With gram's squares completed (_completed_squares), m D^2 Q(x) = sum_i
    a_i (D x_i + C_i)^2 with C_i = sum_(j>i) C_ij x_j.  Q(x) is an integer,
    so the budget is m D^2 floor(bound), and each coordinate runs over the
    v with |D v + C_i| <= isqrt(remaining budget // a_i)."""
    n = len(gram)
    a, C, D, scale = _completed_squares(gram)
    budget = scale * math.floor(bound)
    x = [0] * n

    def walk(i, rem, above_zero):
        # Coordinates above i are fixed; above_zero says they are all 0.
        c = sum(map(mul, C[i], x[i + 1:]))
        s = math.isqrt(rem // a[i])
        lo, hi = -((s + c) // D), (s - c) // D
        if above_zero:
            lo = max(lo, 0)
        for v in range(lo, hi + 1):
            x[i] = v
            left = rem - a[i] * (D * v + c) ** 2
            if i:
                yield from walk(i - 1, left, above_zero and v == 0)
            elif not (above_zero and v == 0):
                yield list(x), (budget - left) // scale
        x[i] = 0

    if n and budget > 0:
        yield from walk(n - 1, budget, True)


def hnf_column(m: Matrix) -> Matrix:
    """Column-style Hermite normal form of the lattice spanned by the
    columns of m: an n x r basis, r = rank, whose j-th column is 0 above
    its pivot row, positive there, and whose earlier columns are reduced
    into [0, pivot) at that row.  That form is unique for the lattice.

    Row by row, the columns with an entry in the row are folded into one
    pivot by extended gcds: (x, y) with x a + y b = g takes the columns
    A, B to x A + y B and (a/g) B - (b/g) A, a unimodular step that
    clears the row in the second."""
    n = len(m)
    cols = [list(c) for c in zip(*m)] if m else []
    basis: list[list[int]] = []
    for row in range(n):
        piv = None
        rest = []
        for c in cols:
            if not c[row]:
                rest.append(c)
            elif piv is None:
                piv = c
            else:
                g, x, y = xgcd(piv[row], c[row])
                a, b = piv[row] // g, c[row] // g
                piv, c = ([x * s + y * t for s, t in zip(piv, c)],
                          [a * t - b * s for s, t in zip(piv, c)])
                rest.append(c)
        if piv is None:
            continue
        if piv[row] < 0:
            piv = [-s for s in piv]
        # Reduce earlier basis vectors' entries at this row into [0, piv).
        for k, b in enumerate(basis):
            q = b[row] // piv[row]
            if q:
                basis[k] = [s - q * t for s, t in zip(b, piv)]
        basis.append(piv)
        cols = [c for c in rest if any(c)]
    return [list(r) for r in zip(*basis)] if basis else [[] for _ in range(n)]


def solve_integer(a: Matrix, b: list[int]) -> list[int] | None:
    """One integer solution x of a @ x = b, or None if unsolvable over Z.

    A nonsingular square a has one rational solution y / d (bareiss_solve),
    so x exists iff d divides every y_i.  Other matrices, singular ones
    included, go through the Smith normal form."""
    if not a:
        return [] if not any(b) else None
    rows, cols = len(a), len(a[0])
    if rows == cols:
        try:
            y, den = bareiss_solve(a, b)
        except ZeroDivisionError:
            pass
        else:
            return None if any(v % den for v in y) else [v // den for v in y]
    d, u, v, _ = smith_normal_form(a)
    c = mat_vec(u, b)
    y = [0] * cols
    for i in range(min(rows, cols)):
        if d[i][i]:
            if c[i] % d[i][i] != 0:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i]:
            return None
    for i in range(min(rows, cols), rows):
        if c[i]:
            return None
    return mat_vec(v, y)


def integer_kernel(a: Matrix, cols: int) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^cols : a @ x = 0}."""
    if not a:
        return identity(cols)
    d, _, v, _ = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(a), cols)) if d[i][i])
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


# ---------------------------------------------------------------------------
# F_p matrices: lists of integer rows, read mod p.  ncols, the number of
# columns, is needed only where the rows may be empty.  Each entry runs
# the one Gauss-Jordan elimination _rref below and calls no other entry.


def fp_rref(rows: Matrix, p: int, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over F_p and the list of pivot columns."""
    return _rref(rows, len(rows[0]) if ncols is None else ncols, p)


def fp_rank(rows: Matrix, p: int, ncols: int | None = None) -> int:
    return len(_rref(rows, len(rows[0]) if ncols is None else ncols, p)[1])


def fp_kernel(rows: Matrix, p: int, ncols: int | None = None) -> Matrix:
    """Basis of the right kernel over F_p: one vector per free column, 1
    there, minus the reduced entries at the pivot columns, 0 elsewhere."""
    if ncols is None:
        ncols = len(rows[0])
    a, pivots = _rref(rows, ncols, p)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc] % p
        basis.append(v)
    return basis


def fp_solve(rows: Matrix, b: list[int], p: int, ncols: int | None = None) -> list[int] | None:
    """The solution x of rows @ x = b over F_p with free coordinates 0, or
    None: [rows | b] reduced with pivots in the first ncols columns gives
    x at each pivot column as its row's reduced b entry, and has no
    solution when a row below the pivots keeps a nonzero b entry."""
    if ncols is None:
        ncols = len(rows[0])
    a, pivots = _rref([list(row) + [y] for row, y in zip(rows, b)], ncols, p)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    x = [0] * ncols
    for row, pc in zip(a, pivots):
        x[pc] = row[ncols]
    return x


def fp_inverse(rows: Matrix, p: int) -> Matrix:
    """Inverse over F_p of a square matrix; ZeroDivisionError if singular."""
    n = len(rows)
    a, pivots = _rref([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(rows)], n, p)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Matrices over Q, given as rows of ints or Fractions, each row cleared.


def clear_denominators(row) -> tuple[list[int], int]:
    """Integers a and d >= 1, the lcm of the denominators, with row = a / d."""
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def frac_det(m) -> Fraction:
    """Determinant over Q: the Bareiss det of m with each row's
    denominators cleared, divided by the product of those denominators."""
    scale = 1
    rows = []
    for row in m:
        a, d = clear_denominators(row)
        scale *= d
        rows.append(a)
    return Fraction(det(rows), scale)


def frac_inv(m):
    """Inverse over Q; ZeroDivisionError if m is singular.  With row i of
    m equal to A_i / s_i, m^-1 = A^-1 diag(s) for A^-1 from bareiss_inverse."""
    rows, scales = zip(*map(clear_denominators, m))
    V, d = bareiss_inverse(rows)
    return [[Fraction(v * s, d) for v, s in zip(row, scales)] for row in V]


def frac_solve(m, b):
    """m^-1 b over Q for a square m; ZeroDivisionError if m is singular."""
    return mat_vec(frac_inv(m), b)


# ---------------------------------------------------------------------------
# The one Gauss-Jordan elimination, over F_p, behind every fp_* entry above.


def _rref(rows, ncols: int, p: int):
    """Gauss-Jordan elimination over F_p, with pivots taken in the first
    ncols columns (rows may be longer, e.g. an augmented block).  Each
    column's pivot is the first nonzero entry at or below the current row.
    Returns (reduced rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
    return a, pivots


import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from tclab import intlinalg as la
from tclab import polys


def random_matrix(rng, rows, cols, bound=30):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_known():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v, _ = la.smith_normal_form(m)
    assert [d[i][i] for i in range(3)] == [2, 6, 12]


def test_snf_properties_random():
    rng = random.Random(101)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d, u, v, u_inv = la.smith_normal_form(m)
        assert la.mat_mul(la.mat_mul(u, m), v) == d
        assert la.mat_mul(u, u_inv) == la.identity(rows)
        assert abs(la.det(u)) == 1
        assert abs(la.det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert all(x >= 0 for x in diag)


def test_cokernel_order_matches_det():
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 4)
        cases.append(random_matrix(rng, n, n, 9))
    # Presentations with trivial factors and with a generator killed outright.
    cases += [[[2, 0], [0, 1]], [[1, 2], [0, 4]], [[1]], [[3, 0, 0], [0, 9, 0], [0, 0, 1]]]
    for m in cases:
        n = len(m)
        dt = la.det(m)
        if dt == 0:
            continue
        pres = la.present(m, n)
        assert pres.group.order() == abs(dt)
        assert la.mat_mul(pres.U, pres.U_inv) == la.identity(n)
        nontrivial = [i for i, d in enumerate(pres.diag) if d > 1]
        assert pres.orders == tuple(pres.diag[i] for i in nontrivial)
        for i in range(n):
            assert pres.coords(pres.generator(i)) == tuple(int(i == j) for j in nontrivial)
        for row in m:
            assert not any(pres.coords(row))


def test_integer_kernel():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 10)
        for v in la.integer_kernel(m, cols):
            assert any(v)
            assert la.mat_vec(m, v) == [0] * rows
    # No rows: the kernel is all of Z^t.
    assert la.integer_kernel([], 3) == la.identity(3)


def test_solve_integer():
    m = [[2, 0], [0, 3]]
    assert la.solve_integer(m, [4, 9]) == [2, 3]
    assert la.solve_integer(m, [1, 0]) is None


def _euclid_xgcd(a, b):
    """Extended Euclid's loop, the reference for la.xgcd."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def test_xgcd_matches_euclid():
    rng = random.Random(28)
    big = 2**1000
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    pairs += [(a, s * a) for a in (1, 7, 2**64 + 13, big + 1) for s in (1, -1)]
    pairs += [(0, big - 1), (big + 3, 0), (-big, 2), (big * 6, -big * 4)]
    for bits in (4, 30, 64, 200, 1000):
        for _ in range(300):
            a = rng.getrandbits(bits) * rng.choice((1, -1))
            b = rng.getrandbits(bits) * rng.choice((1, -1))
            g = rng.getrandbits(bits // 2 + 1) + 1
            pairs += [(a, b), (a * g, b * g)]
    for a, b in pairs:
        g, x, y = la.xgcd(a, b)
        assert g == math.gcd(a, b) and x * a + y * b == g, (a, b)
        # Balanced: |x| <= |b| / (2g), as Euclid's loop leaves it.
        assert not b or 2 * g * abs(x) <= abs(b), (a, b)
        assert (g, x, y) == _euclid_xgcd(a, b), (a, b)


def _solve_by_snf(a, b):
    """solve_integer's Smith normal form route, the reference for its
    square route."""
    d, u, v, _ = la.smith_normal_form(a)
    rows, cols = len(a), len(a[0])
    c = la.mat_vec(u, b)
    y = [0] * cols
    for i in range(min(rows, cols)):
        if d[i][i]:
            if c[i] % d[i][i]:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i]:
            return None
    if any(c[min(rows, cols):]):
        return None
    return la.mat_vec(v, y)


def test_solve_integer_square_route_matches_snf(monkeypatch):
    rng = random.Random(2828)
    solved = unsolvable = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, bound=rng.choice((3, 30, 10**12)))
        if la.det(a) == 0:
            continue
        x = [rng.randint(-50, 50) for _ in range(n)]
        b = la.mat_vec(a, x)
        # A nonsingular system has one solution: both routes give x.
        assert la.solve_integer(a, b) == x == _solve_by_snf(a, b)
        solved += 1
        b[rng.randrange(n)] += 1
        ref = _solve_by_snf(a, b)
        assert la.solve_integer(a, b) == ref
        unsolvable += ref is None
    assert solved > 250 and unsolvable > 100
    # A singular square matrix falls back to the SNF route.
    calls = []
    real_snf = la.smith_normal_form

    def snf(*args, **kw):
        calls.append(args)
        return real_snf(*args, **kw)

    monkeypatch.setattr(la, "smith_normal_form", snf)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n - 1, n, bound=9)
        t = [rng.randint(-3, 3) for _ in range(n - 1)]
        a.insert(rng.randrange(n), [sum(c * row[j] for c, row in zip(t, a)) for j in range(n)])
        x = [rng.randint(-9, 9) for _ in range(n)]
        for b in (la.mat_vec(a, x), [rng.randint(-9, 9) for _ in range(n)]):
            before = len(calls)
            got = la.solve_integer(a, b)
            assert len(calls) == before + 1
            assert got == _solve_by_snf(a, b)
            assert got is None or la.mat_vec(a, got) == b


def test_finabgroup():
    g = la.FinAbGroup([2, 12])
    assert g.order() == 24
    assert g.p_rank(2) == 2
    assert tuple(g.p_primary(2).invariant_factors) == (2, 4)
    assert str(la.FinAbGroup([])) == "0"


def test_finabgroup_is_a_value():
    # Factors 1 are dropped, lists and tuples give the same group, and
    # equal groups hash equal.
    g = la.FinAbGroup([1, 2, 12])
    assert g == la.FinAbGroup((2, 12)) and hash(g) == hash(la.FinAbGroup((2, 12)))
    assert g.invariant_factors == (2, 12)
    assert la.FinAbGroup() == la.FinAbGroup([1]) == la.FinAbGroup(())
    assert g != la.FinAbGroup((2, 4)) and g != (2, 12)
    assert len({g, la.FinAbGroup((2, 12)), la.FinAbGroup()}) == 2
    for bad in ((2, 3), (4, 2), (0,), (-2, 4)):
        with pytest.raises(ValueError):
            la.FinAbGroup(bad)


def test_fp_matrix_equality_is_by_entries():
    a = la.FpMatrix.from_rows([[1, 7], [3, 4]], 5)
    assert a == la.FpMatrix(2, 2, [[1, 2], [3, 4]], 5)
    assert a in [la.FpMatrix.from_rows([[0, 1], [1, 0]], 5),
                 la.FpMatrix.from_rows([[6, 2], [3, 9]], 5)]
    assert a != la.FpMatrix.from_rows([[1, 2], [3, 3]], 5)
    assert a != la.FpMatrix.from_rows([[1, 2], [3, 4]], 7)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_kernel_random(p):
    rng = random.Random(p)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = la.FpMatrix.from_rows(random_matrix(rng, rows, cols, 20), p, cols)
        ker = la.fp_kernel(m)
        assert la.fp_rank(m) + len(ker) == cols
        for v in ker:
            out = [sum(a * b for a, b in zip(row, v)) % p for row in m.entries]
            assert out == [0] * rows


def test_fp_solve():
    m = la.FpMatrix.from_rows([[1, 2], [3, 4]], 5, 2)
    x = la.fp_solve(m, [1, 0])
    assert x is not None
    assert [(r[0] * x[0] + r[1] * x[1]) % 5 for r in m.entries] == [1, 0]


def _rank_by_minors(m, cols):
    return max((k for k in range(1, min(len(m), cols) + 1)
                for rs in combinations(m, k) for cs in combinations(range(cols), k)
                if la.frac_det([[row[c] for c in cs] for row in rs])), default=0)


def test_q_and_fp_inverse_random():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, 9)
        assert la.frac_det(m) == la.det(m)
        q = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in m]
        if rng.random() < 0.3 and n > 1:
            q[-1] = [a + b for a, b in zip(q[0], q[-2])]
        d = la.frac_det(q)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                la.frac_inv(q)
            continue
        inv = la.frac_inv(q)
        assert la.mat_mul(inv, q) == la.identity(n)
        assert la.frac_det(inv) * d == 1
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        assert la.mat_vec(q, la.frac_solve(q, b)) == b
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        q = [[Fraction(x, rng.randint(1, 4)) for x in row]
             for row in random_matrix(rng, rows, cols, 5)]
        if rows > 2 and rng.random() < 0.5:
            q[-1] = [a - 2 * b for a, b in zip(q[0], q[1])]
        ker = la._kernel(q, cols)
        assert _rank_by_minors(q, cols) + len(ker) == cols
        for v in ker:
            assert la.mat_vec(q, v) == [0] * rows
    assert la._kernel([], 2) == [[1, 0], [0, 1]]
    for p in (2, 3, 7):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = la.FpMatrix.from_rows(random_matrix(rng, n, n, 20), p, n)
            if la.fp_rank(m) < n:
                with pytest.raises(ZeroDivisionError):
                    la.fp_inverse(m)
                continue
            inv = la.fp_inverse(m)
            for x, y in ((inv, m), (m, inv)):
                prod = la.mat_mul(x.entries, y.entries)
                assert [[e % p for e in row] for row in prod] == la.identity(n)


# Recursive enumerators the package used before itertools; the order they
# fix decides which units and which monogenic generator are found first,
# so it must hold.

def _ref_box(n, h):
    if n == 0:
        yield ()
        return
    for rest in _ref_box(n - 1, h):
        for c in range(-h, h + 1):
            yield rest + (c,)


def _ref_shell(n, h):
    for vec in _ref_box(n, h):
        if max(abs(v) for v in vec) == h:
            yield vec


def _ref_tuples(k, q):
    if k == 0:
        yield ()
        return
    for rest in _ref_tuples(k - 1, q):
        for c in range(q):
            yield rest + (c,)


def _ref_group_elements(orders):
    if not orders:
        yield ()
        return
    for rest in _ref_group_elements(orders[1:]):
        for c in range(orders[0]):
            yield (c,) + rest


def _ref_sign_patterns(k):
    if k == 0:
        yield ()
        return
    for rest in _ref_sign_patterns(k - 1):
        yield (1,) + rest
        yield (-1,) + rest


def test_enumeration_orders_match_reference():
    for n in range(4):
        for h in range(1, 4):
            assert list(product(range(-h, h + 1), repeat=n)) == list(_ref_box(n, h))
            if n:
                assert list(la.shell(n, h)) == list(_ref_shell(n, h))
            # The unit saturation search: nonnegative exponent vectors.
            assert (list(product(range(h + 1), repeat=n))
                    == [v for v in _ref_box(n, h) if not any(e < 0 for e in v)])
        if n:
            coord_candidates = chain.from_iterable(la.shell(n, h) for h in (1, 2, 3))
            assert list(coord_candidates) == [v for h in (1, 2, 3) for v in _ref_shell(n, h)]
        for q in (2, 3, 5, 7):
            assert list(product(range(q), repeat=n)) == list(_ref_tuples(n, q))
            assert list(polys._candidates(n, q)) == [
                polys.gfp_trim(t + (1,), q) for d in range(1, n + 1) for t in _ref_tuples(d, q)]
        assert list(la.product_first_fastest([(1, -1)] * n)) == list(_ref_sign_patterns(n))
    # Lazy in q: the first candidate comes without a pass over range(q).
    assert next(polys._candidates(2, 2**61 - 1)) == (0, 1)
    for orders in ([], [2], [3, 2], [2, 3, 4], [3, 3, 3]):
        assert (list(la.product_first_fastest([range(d) for d in orders]))
                == list(_ref_group_elements(orders)))
    rf = polys.ResidueField(3, (2, 0, 1))
    assert list(rf.elements()) == [polys.gfp_trim(t, 3) for t in _ref_tuples(2, 3)]


def _random_gram(rng, n, bound=30):
    while True:
        a = random_matrix(rng, n, n, bound)
        if la.det(a):
            return la.mat_mul(la.transpose(a), a)


def _gram_schmidt(gram):
    """mu and the squared Gram-Schmidt lengths B over Q (the textbook
    recursion, independent of the integral bookkeeping inside la.lll)."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))) / B[j]
        B[i] = gram[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i))
    return mu, B


def test_lll_random_grams():
    rng = random.Random(3141)
    for _ in range(150):
        n = rng.randint(1, 5)
        gram = _random_gram(rng, n)
        G, T = la.lll(gram)
        assert abs(la.det(T)) == 1
        assert la.mat_mul(la.mat_mul(la.transpose(T), gram), T) == G
        mu, B = _gram_schmidt(G)
        for k in range(n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            if k:
                assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]
    with pytest.raises(ValueError):
        la.lll([[1, 2], [2, 4]])


def _reference_box(gram, bound):
    """|x_i| <= sqrt(bound (gram^-1)_ii) holds for every x with x^t gram x <= bound."""
    inv = la.frac_inv(gram)
    return [math.isqrt(math.floor(max(bound, 0) * inv[i][i])) + 1 for i in range(len(gram))]


def _brute_short_vectors(gram, bound):
    """Nonzero x with x^t gram x <= bound and last nonzero coordinate > 0,
    by scanning the reference box."""
    out = []
    for x in product(*[range(-b, b + 1) for b in _reference_box(gram, bound)]):
        nz = [c for c in x if c]
        if nz and nz[-1] > 0 and sum(a * b for a, b in zip(x, la.mat_vec(gram, x))) <= bound:
            out.append(x)
    return sorted(out)


def _completed_squares_over_q(gram):
    """(a, C, D, m D^2) of la._completed_squares, by completing the squares
    with Fractions, as fincke_pohst once did: the reference."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    m = math.lcm(*(q[i][i].denominator for i in range(n)))
    D = math.lcm(*(q[i][j].denominator for i in range(n) for j in range(i + 1, n)))
    a = [int(q[i][i] * m) for i in range(n)]
    C = [[int(q[i][j] * D) for j in range(i + 1, n)] for i in range(n)]
    return a, C, D, m * D * D


def test_completed_squares_match_the_fraction_completion():
    rng = random.Random(1985)
    for case in range(400):
        gram = _random_gram(rng, case % 5 + 1, rng.choice((3, 10, 30)))
        if case % 2:
            gram = la.lll(gram)[0]
        assert la._completed_squares(gram) == _completed_squares_over_q(gram), gram


def test_fincke_pohst_builds_no_fraction_on_integer_input(monkeypatch):
    gram = la.lll(_random_gram(random.Random(7), 4, 6))[0]
    expected = list(la.fincke_pohst(gram, 3 * gram[0][0]))

    def refuse(*args):
        raise AssertionError("fincke_pohst built a Fraction")

    monkeypatch.setattr(la, "Fraction", refuse)
    assert list(la.fincke_pohst(gram, 3 * gram[0][0])) == expected and len(expected) > 1


def test_fincke_pohst_matches_box_enumeration():
    rng = random.Random(2718)
    cases = 0
    while cases < 60:
        n = rng.randint(1, 4)
        gram = _random_gram(rng, n, 6)
        if rng.random() < 0.5:
            gram = la.lll(gram)[0]
        # The minimum of the form, which a unimodular change of basis keeps,
        # is at most the least diagonal entry of the reduced form.
        red = la.lll(gram)[0]
        least = min(sum(a * b for a, b in zip(x, la.mat_vec(red, x)))
                    for x in _brute_short_vectors(red, min(red[i][i] for i in range(n))))
        bounds = (0, least - 1, least, Fraction(5, 2) * least, 6 * least + 1)
        # A skewed form makes the reference box huge; draw another to keep
        # the brute force quick.
        if math.prod(2 * b + 1 for b in _reference_box(gram, bounds[-1])) > 20000:
            continue
        cases += 1
        for bound in bounds:
            walk = list(la.fincke_pohst(gram, bound))
            assert all(q == sum(a * b for a, b in zip(x, la.mat_vec(gram, x))) for x, q in walk)
            # The walk lists the points in increasing (x_(n-1), ..., x_0).
            order = [tuple(reversed(x)) for x, _ in walk]
            assert order == sorted(order)
            got = sorted(tuple(x) for x, _ in walk)
            assert got == _brute_short_vectors(gram, bound), (gram, bound)
            if bound < least:
                assert got == []

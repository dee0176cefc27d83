"""Integer ideal arithmetic against test-local copies of the earlier code.

Each reference below is the earlier implementation of the same function:
the Euclid-by-sorting hnf_column, the minimal-pivot Smith normal form
that scans the whole block, the squarefree / distinct-degree /
Cantor-Zassenhaus factorisation for every degree, the lattice product
through multiplication matrices, the Fraction structure constants and
the Horner lift in element arithmetic.  The new code must return exactly
what they return.
"""

import math
import random
from fractions import Fraction

import pytest

from tclab import classunit as cu
from tclab import intlinalg as la
from tclab import numberfield as nf
from tclab import polys
from tclab.numberfield import NumberField, lattice_mul

from conftest import fraction_inverse, quadratic_field
from test_polys_embeddings import CUBIC_CORPUS


# ---------------------------------------------------------------------------
# References


def ref_hnf_column(m):
    n = len(m)
    cols = [list(c) for c in zip(*m)] if m else []
    basis = []
    for row in range(n):
        live = [c for c in cols if any(c[row:])]
        rest = [c for c in cols if not any(c[row:])]
        cols = live
        nonzero = [c for c in cols if c[row]]
        while len(nonzero) > 1:
            nonzero.sort(key=lambda c: abs(c[row]))
            c0 = nonzero[0]
            for c in nonzero[1:]:
                q = c[row] // c0[row]
                for k in range(n):
                    c[k] -= q * c0[k]
            nonzero = [c for c in cols if c[row]]
        if nonzero:
            piv = nonzero[0]
            if piv[row] < 0:
                for k in range(n):
                    piv[k] = -piv[k]
            for b in basis:
                q = b[row] // piv[row]
                if q:
                    for k in range(n):
                        b[k] -= q * piv[k]
            basis.append(piv)
            cols = [c for c in cols if c is not piv]
        cols.extend(rest)
    return [list(r) for r in zip(*basis)] if basis else [[] for _ in range(n)]


def ref_smith_normal_form(m):
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = [row[:] for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    u_inv = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        i, j, _ = best
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            for row in u_inv:
                row[t], row[i] = row[i], row[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        clean = True
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                for k in range(cols):
                    a[i][k] -= q * a[t][k]
                for k in range(rows):
                    u[i][k] -= q * u[t][k]
                for row in u_inv:
                    row[t] += q * row[i]
                if a[i][t]:
                    clean = False
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if a[t][j]:
                    clean = False
        if not clean:
            continue
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for k in range(cols):
                a[t][k] += a[offender][k]
            for k in range(rows):
                u[t][k] += u[offender][k]
            for row in u_inv:
                row[offender] -= row[t]
            continue
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
            for row in u_inv:
                row[t] = -row[t]
        t += 1
    return a, u, v, u_inv


def ref_gfp_factor(f, q):
    """Squarefree part, distinct-degree and equal-degree splitting."""
    f = polys.gfp_monic(f, q)
    if polys.poly_deg(f) < 1:
        return []
    out = []
    for g in polys._factor_squarefree(polys.gfp_radical(f, q), q):
        mult, rem = 0, f
        while True:
            quo, r = polys.gfp_divmod(rem, g, q)
            if r:
                break
            rem, mult = quo, mult + 1
        out.append((g, mult))
    return sorted(out, key=lambda t: (polys.poly_deg(t[0]), t[0]))


def ref_lattice_mul(field, lat1, lat2):
    cols2 = list(zip(*lat2))
    gens = []
    for c1 in zip(*lat1):
        m = field._mult_matrix(c1)
        gens += [la.mat_vec(m, c2) for c2 in cols2]
    return ref_hnf_column(la.transpose(gens))


def ref_structure(field):
    n = field.degree
    f = field.min_poly

    def reduce(vec):
        vec = list(vec) + [Fraction(0)] * (n - len(vec))
        for k in range(len(vec) - 1, n - 1, -1):
            c = vec[k]
            if c:
                vec[k] = Fraction(0)
                for j in range(n):
                    vec[k - n + j] -= c * f[j]
        return vec[:n]

    B, inv = field._basis_rows, fraction_inverse(field._basis_rows)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = [Fraction(0)] * (2 * n - 1)
            for s, x in enumerate(B[i]):
                for t, y in enumerate(B[j]):
                    prod[s + t] += x * y
            prod = reduce(prod)
            coords = [sum(prod[k] * inv[k][l] for k in range(n)) for l in range(n)]
            assert all(c.denominator == 1 for c in coords)
            for k, c in enumerate(coords):
                table[k][j][i] = table[k][i][j] = int(c)
    return [[tuple(col) for col in row] for row in table]


# ---------------------------------------------------------------------------
# Quadratic ideal products


def _squarefree(n):
    return abs(n) > 1 and all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1))


def _qfield(d):
    return NumberField([-(d - 1) // 4, -1, 1] if d % 4 == 1 else [-d, 0, 1])


def _check_products(K, rng, lats):
    # Pairs, then products of products (content > 1 once a prime meets its
    # conjugate or a ramified prime meets itself).
    prods = []
    for _ in range(8):
        a, b = rng.choice(lats), rng.choice(lats)
        got = lattice_mul(K, a, b)
        assert got == ref_lattice_mul(K, a, b), (K, a, b)
        prods.append(got)
    for _ in range(6):
        a, b = rng.choice(prods), rng.choice(prods + lats)
        got = lattice_mul(K, a, b)
        assert got == ref_lattice_mul(K, a, b), (K, a, b)
    return prods


def test_quadratic_lattice_mul_matches_matrix_product():
    rng = random.Random(1414)
    ds = set()
    while len(ds) < 320:
        d = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 4.5))
        if d != 1 and _squarefree(d):
            ds.add(d)
    contents = 0
    for d in sorted(ds):
        K = _qfield(d)
        # Split, inert and ramified primes: the primes above q < 30 and
        # above the prime factors of the discriminant.
        qs = sorted({2, 3, 5, 7, 11, 13, 17, 19, 23, 29} | set(polys.prime_factors(abs(K.disc))))
        lats = [P.lattice() for q in qs[:14] for P in K.factor_prime(q)]
        prods = _check_products(K, rng, lats)
        contents += sum(math.gcd(*(x for row in lat for x in row)) > 1 for lat in prods)
    assert contents > 300


@pytest.mark.parametrize("n", [5, 13, -3, -7, 29])
def test_quadratic_lattice_mul_on_half_integral_basis(n):
    # Basis (1, (1 + sqrt n)/2) over the polynomial x^2 - n: omega is not theta.
    K = quadratic_field(n)
    rng = random.Random(n)
    lats = [P.lattice() for q in (2, 3, 5, 7, 11, 13, 29) for P in K.factor_prime(q)]
    lats += [la.identity(2), [[2, 0], [0, 2]]]
    _check_products(K, rng, lats)
    for a in lats:
        for b in lats:
            assert lattice_mul(K, a, b) == ref_lattice_mul(K, a, b)


def test_quadratic_triple_reads_any_basis():
    # A non-HNF basis of the same ideal gives the same triple and product.
    K = _qfield(-5)
    P = K.prime(3)
    lat = P.lattice()
    other = la.mat_mul(lat, [[2, 1], [1, 1]])  # unimodular change of basis
    assert nf._quadratic_triple(other) == nf._quadratic_triple(lat)
    assert lattice_mul(K, other, other) == lattice_mul(K, lat, lat)


def test_cubic_lattice_mul_unchanged():
    rng = random.Random(3)
    for f in CUBIC_CORPUS[:8]:
        K = NumberField(f)
        lats = [P.lattice() for q in (2, 3, 5, 7) for P in K.factor_prime(q)]
        _check_products(K, rng, lats)


def test_relation_ideals_match_matrix_products():
    # _ideal_power_product through the reference product gives the same
    # lattices, so principal_generator sees the same input.
    for d in (-229, -194, -23, 79, 229, 4279, -971):
        K = _qfield(d)
        cg = cu.class_group(K)
        for row in cg.relation_matrix:
            lat = None
            for P, e in zip(cg.generating_primes, row):
                for _ in range(e):
                    lat = P.lattice() if lat is None else ref_lattice_mul(K, lat, P.lattice())
            assert cu._ideal_power_product(K, cg.generating_primes, row) == (lat or la.identity(2))


# ---------------------------------------------------------------------------
# Closed-form quadratic factorisation


@pytest.mark.parametrize("q", [2, 3, 5, 7, 17, 41, 97, 65537])
def test_quadratic_gfp_factor_matches_cantor_zassenhaus(q):
    rng = random.Random(q)
    fs = [(rng.randrange(q), rng.randrange(q), 1) for _ in range(300)]
    # Zero discriminant: (x - r)^2, and every quadratic when q is small.
    fs += [polys.gfp_mul((-r % q, 1), (-r % q, 1), q) for r in range(min(q, 50))]
    if q < 20:
        fs += [(c, b, 1) for b in range(q) for c in range(q)]
    kinds = set()
    for f in fs:
        got = polys.gfp_factor(f, q)
        assert got == ref_gfp_factor(f, q), (q, f)
        kinds.add("split" if len(got) == 2 else "double" if got[0][1] == 2 else "inert")
    assert kinds == {"split", "double", "inert"}


def test_quadratic_gfp_factor_non_monic_and_unreduced():
    for q in (2, 3, 7, 97):
        for f in [(5, 3, 2), (-1, 0, 3 * q + 1), (q, 2 * q, 5), (1, 1, q + 1)]:
            if f[-1] % q:
                assert polys.gfp_factor(f, q) == ref_gfp_factor(f, q)


def test_sqrt_mod_all_squares():
    for q in (3, 5, 13, 17, 41, 97, 257, 65537):
        for a in range(min(q, 400)):
            if a == 0 or pow(a, (q - 1) // 2, q) == 1:
                r = polys._sqrt_mod(a, q)
                assert r * r % q == a


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


def test_smith_normal_form_matches_reference_random():
    rng = random.Random(2718)
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((1, 2, 9, 60))
        m = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        d, u, v, u_inv = la.smith_normal_form(m)
        assert (d, u, v, u_inv) == ref_smith_normal_form(m), m
        assert la.smith_normal_form(m, with_v=False) == (d, u, None, u_inv), m


def test_smith_normal_form_matches_reference_on_relation_matrices():
    checked = 0
    for d in range(-300, 300):
        if d == 1 or not _squarefree(d):
            continue
        cg = cu.class_group(_qfield(d))
        if cg.relation_matrix:
            m = la.transpose(cg.relation_matrix)
            snf = la.smith_normal_form(m)
            assert snf == ref_smith_normal_form(m), d
            assert la.smith_normal_form(m, with_v=False) == (*snf[:2], None, snf[3]), d
            checked += 1
    assert checked > 300


def test_hnf_column_matches_reference():
    rng = random.Random(1618)
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 12)
        bound = rng.choice((3, 9, 100, 10**6))
        m = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        assert la.hnf_column(m) == ref_hnf_column(m), m


# ---------------------------------------------------------------------------
# Field construction and primes


BASIS_FIELDS = [
    ((-8, -4, 0, 1), [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 4)]]),
    ((7, 0, 1), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    ((-8, -2, -1, 1), [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]]),
]


def test_integer_structure_constants_match_fraction_build():
    fields = [NumberField(f) for f in CUBIC_CORPUS]
    fields += [_qfield(d) for d in range(-999, 1000) if d == -1 or _squarefree(d)]
    fields += [NumberField(f, integral_basis=b) for f, b in BASIS_FIELDS]
    fields += [quadratic_field(n) for n in (5, 13, -3, -7)]
    assert len(fields) == 26 + 1215 + 3 + 4
    for K in fields:
        assert K._structure == ref_structure(K), K


def test_basis_not_closed_under_multiplication_is_refused():
    with pytest.raises(nf.FieldError, match="not closed under multiplication at b1\\*b2"):
        NumberField((-8, -4, 0, 1), integral_basis=[[1, 0, 0], [0, 1, 0],
                                                    [0, Fraction(1, 2), Fraction(1, 2)]])


@pytest.mark.parametrize("f,basis,qs", [
    (*BASIS_FIELDS[0], (2, 3, 5, 7, 11)),  # 2 divides the index: gen is not theta
    (*BASIS_FIELDS[1], (2, 3, 5, 7, 11)),
    (*BASIS_FIELDS[2], (3, 5, 7, 11)),  # no generator of the order at 2
    ((-1, -6, 0, 1), None, (2, 3, 5, 7, 11)),
    ((-3, 1, 1), None, (2, 3, 5, 7, 11)),
])
def test_integer_lift_matches_element_horner(f, basis, qs):
    K = NumberField(f, integral_basis=basis)
    for q in qs:
        for P in K.factor_prime(q):
            for coeffs in [P.gpoly, (1,), (), (3, 0, 2), (q - 1, 1, 1, 1)]:
                want = K.elt(polys.poly_eval(tuple(coeffs), P.gen))
                assert P.lift(coeffs) == want


def test_prime_sieve_is_one_list_extended_by_doubling(monkeypatch):
    monkeypatch.setattr(nf, "_sieve_primes", [])
    monkeypatch.setattr(nf, "_sieve_limit", 1)
    rng = random.Random(9)
    bounds = [rng.randrange(0, 3000) for _ in range(200)] + [0, 1, 2, 3]
    limits = set()
    for b in bounds:
        want = [p for p in range(2, b + 1) if all(p % k for k in range(2, math.isqrt(p) + 1))]
        assert nf._primes_up_to(b) == want
        limits.add(nf._sieve_limit)
    # Each extension at least doubles the limit, so there are few of them.
    assert nf._sieve_limit < 6000 and len(limits) <= 4
    assert len(nf._sieve_primes) == len(nf._primes_up_to(nf._sieve_limit))


def test_iter_primes_sieves_only_as_far_as_read(monkeypatch):
    # The lazy walk gives the sieve's primes; stopping after the 300th
    # prime (1987) leaves the sieve at 2048 however large the bound.
    monkeypatch.setattr(nf, "_sieve_primes", [])
    monkeypatch.setattr(nf, "_sieve_limit", 1)
    for b in [0, 1, 2, 1023, 1024, 1025, 5000]:
        assert list(nf.iter_primes(b)) == nf._primes_up_to(b)
    monkeypatch.setattr(nf, "_sieve_primes", [])
    monkeypatch.setattr(nf, "_sieve_limit", 1)
    walk = nf.iter_primes(10**12)
    assert [next(walk) for _ in range(300)][-1] == 1987 and nf._sieve_limit == 2048

import math
import random
from fractions import Fraction

import pytest

from tclab import intlinalg as la
from tclab.numberfield import FieldError, NFElement, Q, NumberField, is_prime, lattice_mul
from tclab.polys import poly_eval, poly_mul

from conftest import SQUAREFREE, fraction_inverse, quadratic_field


def test_rationals_basics():
    assert Q.degree == 1
    assert Q.signature == (1, 0)
    x = Q.elt([3]) * Q.elt([5])
    assert x.norm() == 15


def test_quadratic_discriminants():
    assert quadratic_field(5).disc == 5
    assert quadratic_field(-1).disc == -4
    assert quadratic_field(-23).disc == -23
    assert quadratic_field(10).disc == 40


def test_norm_multiplicative():
    K = quadratic_field(-23)
    rng = random.Random(5)
    for _ in range(50):
        a = K.elt([rng.randint(-9, 9), rng.randint(-9, 9)])
        b = K.elt([rng.randint(-9, 9), rng.randint(-9, 9)])
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).norm() == a.norm() * b.norm()


def test_factor_prime_split_inert_ramified():
    K = quadratic_field(5)
    # 11 is split, 7 inert, 5 ramified in Q(sqrt 5)
    split = K.factor_prime(11)
    assert len(split) == 2 and all(P.f_deg == 1 for P in split)
    inert = K.factor_prime(7)
    assert len(inert) == 1 and inert[0].f_deg == 2
    ram = K.factor_prime(5)
    assert len(ram) == 1 and ram[0].e == 2


def test_prime_labels_deterministic():
    K = quadratic_field(5)
    a = [P.label for P in K.factor_prime(11)]
    b = [P.label for P in K.factor_prime(11)]
    assert a == b == ["11_1", "11_2"]


def test_norms_cover_rational_prime():
    for n in [5, -23, 13, -1]:
        K = quadratic_field(n)
        for q in [2, 3, 5, 7, 11]:
            prod = 1
            for P in K.factor_prime(q):
                prod *= P.norm ** P.e
            assert prod == q ** K.degree


def test_residue_arithmetic():
    K = quadratic_field(5)
    P = K.prime(11, 1)
    r = P.residue(K.theta)
    F = P.residue_field
    # theta = sqrt(5), so its residue squares to 5 mod P
    assert F.mul(r, r) == F.elt((5,))
    assert F.is_zero(P.residue(K.theta * K.theta + K.elt([-5, 0])))


def test_valuation():
    K = quadratic_field(5)
    P = K.prime(5, 1)
    assert P.valuation(K.elt([5, 0])) == 2
    two_theta_minus_one = K.elt([-1, 2])
    assert P.valuation(two_theta_minus_one * two_theta_minus_one) == 2


def test_minkowski_bound_monotone_in_disc():
    assert quadratic_field(5).minkowski_bound() <= quadratic_field(-163).minkowski_bound()


def test_primes_of_norm_up_to():
    K = quadratic_field(-1)
    primes = K.primes_of_norm_up_to(25)
    assert all(P.norm <= 25 for P in primes)
    assert any(P.norm == 2 for P in primes)
    # norms of split primes above q = 1 mod 4 show up once per factor
    assert sum(1 for P in primes if P.norm == 5) == 2


# Fields for the degree-1 prime scanner: Q, Q(sqrt 5) (basis denominator
# 2), the cubics of disc 49 (zeta7plus), 81, 837 and 892, and the quartic
# x^4 - 5x^2 + 5.
SCANNER_FIELDS = {
    "q": lambda: Q,
    "sqrt5": lambda: quadratic_field(5),
    "zeta7plus": lambda: NumberField((-1, -2, 1, 1), label="zeta7plus"),
    "disc81": lambda: NumberField((-1, -3, 0, 1)),
    "disc837": lambda: NumberField((-1, -6, 0, 1)),
    "disc892": lambda: NumberField((-2, -7, -2, 1)),
    "disc2000": lambda: NumberField((5, 0, -5, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(SCANNER_FIELDS))
def test_degree_one_primes_match_factor_prime(name):
    # The scanner finds the roots of f mod q without factoring f: its
    # primes below 300 must be the degree-1 primes of factor_prime, and
    # its residues those of PrimeIdeal.residue.
    K = SCANNER_FIELDS[name]()
    rng = random.Random(name)
    elements = [K.elt([Fraction(rng.randint(-99, 99), rng.choice((1, 1, 2, 3, 7, 10)))
                       for _ in range(K.degree)]) for _ in range(20)]
    scanned = list(K.degree_one_primes(1, 299))
    expected = [(q, P) for q in range(2, 300) if is_prime(q) and K.disc_poly % q
                for P in K.factor_prime(q) if P.f_deg == 1]
    # factor_prime lists x - r as (q - r, 1): r = 0 first, then descending.
    assert [(D.q, D.r) for D in scanned] == sorted((q, -P.gpoly[0] % q) for q, P in expected)
    assert len(scanned) > 20
    primes = {(q, -P.gpoly[0] % q): P for q, P in expected}
    for D in scanned:
        P = primes[D.q, D.r]
        for x in elements:
            if x.den % D.q:
                r = D.residue(x)
                assert P.residue(x) == ((r,) if r else ()), (D, x)
    for m in (2, 3, 5, 7):
        assert list(K.degree_one_primes(m, 299)) == [D for D in scanned if D.q % m == 1]


def test_prime_index_out_of_range():
    K = quadratic_field(5)
    with pytest.raises(FieldError):
        K.prime(11, 3)


def test_cubic_field():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    assert L.degree == 3
    assert L.signature == (3, 0)
    assert all(type(r) is int for r in L.signature)
    assert L.disc == 49
    assert len(L.factor_prime(13)) == 3
    assert len(L.factor_prime(3)) == 1


def test_quadratic_corpus_consistent():
    for n in SQUAREFREE[:20]:
        K = quadratic_field(n)
        t = K.theta
        acc = K.zero
        for i, c in enumerate(K.min_poly):
            acc = acc + (t ** i) * c
        assert acc.is_zero()


@pytest.mark.parametrize("f", [
    (-4, 0, 1),           # (x - 2)(x + 2)
    (-1, 0, 0, 1),        # (x - 1)(x^2 + x + 1)
    (4, 0, 0, 0, 1),      # (x^2 - 2x + 2)(x^2 + 2x + 2)
    (2, 0, 3, 0, 1),      # (x^2 + 1)(x^2 + 2)
    (1, 0, 0, 0, 0, 0, 1),  # (x^2 + 1)(x^4 - x^2 + 1)
])
def test_reducible_polynomial_is_refused(f):
    with pytest.raises(FieldError, match="reducible"):
        NumberField(f)


INDEX_FIELDS = [
    # x^3 - 4x - 8: Z[theta] has index 8 in O = Z[1, theta/2, theta^2/4].
    ((-8, -4, 0, 1), [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 4)]], 8),
    # Q(sqrt 5) and Q(sqrt -7) with O = Z[(1 + theta)/2], index 2.
    ((-5, 0, 1), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]], 2),
    ((7, 0, 1), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]], 2),
]


@pytest.mark.parametrize("poly,basis,index", INDEX_FIELDS, ids=["cubic8", "sqrt5", "sqrt-7"])
def test_primes_dividing_the_index(poly, basis, index):
    K = NumberField(poly, integral_basis=basis)
    assert K.index == index
    rng = random.Random(index)
    for q in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        primes = K.factor_prime(q)
        assert sum(P.e * P.f_deg for P in primes) == K.degree
        for P in primes:
            assert P.valuation(K.elt(q)) == P.e
            rf = P.residue_field
            for _ in range(6):
                x = K.elt([rng.randint(-30, 30) for _ in range(K.degree)])
                y = K.elt([rng.randint(-30, 30) for _ in range(K.degree)])
                assert P.residue(x * y) == rf.mul(P.residue(x), P.residue(y))
                d = x - P.lift(P.residue(x))
                assert d.is_zero() or P.valuation(d) >= 1


# The generator of O found for the index fields, with its minimal polynomial
# and the primes above 2, as the Q-kernel route to the polynomial gave them.
FACTOR_GENERATORS = {
    "cubic8": ([-1, -1, -1], (1, 4, 5, 1), [("2_1", 1, 3, (1, 0, 1, 1))]),
    "sqrt5": ([-1, -1], (1, 3, 1), [("2_1", 1, 2, (1, 1, 1))]),
    "sqrt-7": ([-1, -1], (4, 3, 1), [("2_1", 1, 1, (0, 1)), ("2_2", 1, 1, (1, 1))]),
}


@pytest.mark.parametrize("poly,basis,index", INDEX_FIELDS, ids=["cubic8", "sqrt5", "sqrt-7"])
def test_factor_generator_minimal_polynomial(request, poly, basis, index):
    K = NumberField(poly, integral_basis=basis)
    gen, mp, _ = K._factor_generator
    coords, want_mp, want_primes = FACTOR_GENERATORS[request.node.callspec.id]
    assert list(gen.coords) == coords and mp == want_mp
    assert poly_eval(mp, gen).is_zero()
    assert [(P.label, P.e, P.f_deg, tuple(P.gpoly)) for P in K.factor_prime(2)] == want_primes


# The index fields and zeta7plus (Z[theta] maximal), for checks of the
# element arithmetic on elements with denominators.
ARITH_FIELDS = [(f, b) for f, b, _ in INDEX_FIELDS] + [((-1, -2, 1, 1), None)]
ARITH_IDS = ["cubic8", "sqrt5", "sqrt-7", "zeta7plus"]


@pytest.mark.parametrize("f0", [0, 1, -5, 12])
def test_degree_one_models_of_q(f0):
    # Q[x]/(x + f0) is Q with theta = -f0; its primes are (q) for every q,
    # also when q divides f0.
    K = NumberField((f0, 1))
    assert K.theta == K.elt(-f0)
    lo, hi = K.embeddings.intervals[0]
    assert lo <= -f0 <= hi
    for q in [2, 3, 5, 7]:
        (P,) = K.factor_prime(q)
        assert (P.e, P.f_deg) == (1, 1)
        assert abs(la.frac_det(P.lattice())) == q
        assert P.valuation(K.elt(q)) == 1
        assert P.valuation(K.elt(Fraction(q * q, 11))) == 2
        assert P.residue(K.elt(Fraction(3, 11))) == P.residue_field.elt((3 * pow(11, -1, q),))


@pytest.mark.parametrize("poly,basis", ARITH_FIELDS, ids=ARITH_IDS)
def test_integer_norm_matches_fraction_determinant(poly, basis):
    K = NumberField(poly, integral_basis=basis)
    rng = random.Random(str(poly))
    for _ in range(30):
        den = rng.choice((1, 2, 3, 4, 6, 35))
        x = K.elt([Fraction(rng.randint(-50, 50), den) for _ in range(K.degree)])
        # Column j of the reference is x * b_j, multiplied in the power basis.
        ref = la.transpose([K.from_power(poly_mul(x.power_coords(), b)).coords for b in K._basis_rows])
        m, d = K._mult_matrix(x.nums), x.den
        assert [[Fraction(c, d) for c in row] for row in m] == ref
        assert x.norm() == la.frac_det(ref)
        y = K.elt([Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(K.degree)])
        assert (x * y).norm() == x.norm() * y.norm()


def _fraction_to_gen(K, P):
    """The map from basis coordinates to gen-power coordinates as Fractions,
    row i the gen-power coordinates of b_i: the inverse of the matrix whose
    rows are the basis coordinates of 1, gen, ..., gen^(n-1)."""
    return fraction_inverse([(P.gen ** i).coords for i in range(K.degree)])


@pytest.mark.parametrize("poly,basis", ARITH_FIELDS, ids=ARITH_IDS)
def test_residue_matches_fraction_coordinates(poly, basis):
    # residue works on integers over one denominator; the reference sums
    # the Fraction gen-power coordinates and refuses a q in a denominator.
    # The order is maximal, so that refusal is exactly q | den; column j of
    # the residue matrix is the residue of b_j.
    K = NumberField(poly, integral_basis=basis)
    rng = random.Random(repr(poly))
    n = K.degree
    for q in [2, 3, 5, 7, 13]:
        for P in K.factor_prime(q):
            to_gen = _fraction_to_gen(K, P)
            W = P.residue_matrix
            assert len(W) == P.f_deg and all(0 <= w < q for row in W for w in row)
            for j in range(n):
                b_j = [t.numerator * pow(t.denominator, -1, q) for t in to_gen[j]]
                assert P.residue_field.elt([row[j] for row in W]) == P.residue_field.elt(b_j)
            for _ in range(12):
                den = rng.choice((1, 2, 3, 4, 5, 6, 35))
                x = K.elt([Fraction(rng.randint(-50, 50), den) for _ in range(n)])
                c = [sum(x.coords[i] * to_gen[i][j] for i in range(n)) for j in range(n)]
                refused = any(t.denominator % q == 0 for t in c)
                assert refused == (x.den % q == 0)
                if refused:
                    with pytest.raises(FieldError, match="not integral"):
                        P.residue(x)
                else:
                    expect = P.residue_field.elt([t.numerator * pow(t.denominator, -1, q) for t in c])
                    assert P.residue(x) == expect


@pytest.mark.parametrize("poly,basis", ARITH_FIELDS + [((5, 0, -5, 0, 1), None),
                                                      ((2, 0, -4, 0, 1), None)],
                         ids=ARITH_IDS + ["disc2000", "disc2048"])
def test_integer_basis_changes_match_fraction_inverses(poly, basis):
    # The basis inverse V / v and each prime's map (T, d) are integers over
    # one denominator; they must be the Fraction inverses computed here, in
    # lowest terms.
    K = NumberField(poly, integral_basis=basis)
    n = K.degree
    flat, v = la.clear_denominators([c for row in fraction_inverse(K._basis_rows) for c in row])
    assert K._inv_den == v and K._inv_num == [flat[i * n:(i + 1) * n] for i in range(n)]
    for q in [2, 3, 5, 7, 11, 13]:
        for P in K.factor_prime(q):
            T, d = P.to_gen
            ref = la.transpose(_fraction_to_gen(K, P))
            assert [[Fraction(t, d) for t in row] for row in T] == ref


def _random_element(K, rng):
    den = rng.choice((1, 2, 3, 4, 5, 6, 35))
    return K.elt([Fraction(rng.randint(-50, 50), den) for _ in range(K.degree)])


def _assert_normal(x):
    """nums / den in lowest terms with den > 0, and coords its Fraction view."""
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert x.coords == tuple(Fraction(c, x.den) for c in x.nums)


@pytest.mark.parametrize("poly,basis", ARITH_FIELDS, ids=ARITH_IDS)
def test_products_and_inverses_match_power_basis(poly, basis):
    # The integer multiplication matrix against polynomial products mod f.
    # Every result, whatever route built it, is in lowest terms, so equal
    # elements have equal numerators, denominators and hashes.
    K = NumberField(poly, integral_basis=basis)
    rng = random.Random(f"mul{poly}")
    for _ in range(40):
        x, y = _random_element(K, rng), _random_element(K, rng)
        prod = K.from_power(poly_mul(x.power_coords(), y.power_coords()))
        assert x * y == prod
        zero = x + (-x)
        assert zero == K.zero and hash(zero) == hash(K.zero)
        results = [x, y, prod, zero, x + y, x - y, -x, x * 6, Fraction(3, 4) * x]
        if not x.is_zero():
            assert x * x.inverse() == 1
            back = (x * y) / x
            assert back == y and hash(back) == hash(y)
            results += [x.inverse(), back, y / x, x ** -2, x ** -3]
        for z in results:
            _assert_normal(z)


def test_elements_of_different_fields_differ():
    K, L = NumberField((-3, 0, 1)), NumberField((-2, 0, 1))
    assert K.elt([0, 1]) == K.elt([0, 1]) and hash(K.elt([0, 1])) == hash(K.elt([0, 1]))
    assert K.elt([0, 1]) != L.elt([0, 1])
    assert K.one != L.one and K.elt(Fraction(1, 2)) != L.elt(Fraction(1, 2))


@pytest.mark.parametrize("poly", [
    (-1, -2, 1, 1),  # zeta7plus
    (6, -1, 1),      # Q(sqrt -23): theta = (1 + sqrt -23) / 2
], ids=["zeta7plus", "sqrt-23"])
def test_inverse_matches_fraction_solve(poly):
    # inverse solves in integers (Bareiss); the reference applies the
    # test-local Fraction Gauss-Jordan inverse of the same integer matrix.
    K = NumberField(poly)
    rng = random.Random(f"inv{poly}")
    for _ in range(60):
        x = _random_element(K, rng)
        if x.is_zero():
            continue
        m, den = K._mult_matrix(x.nums), x.den
        ref = la.mat_vec(fraction_inverse(m), [den] + [0] * (K.degree - 1))
        assert x.inverse().coords == tuple(ref)
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()


def _valuation_by_lattices(P, x):
    """v_P(x) from the definition: the largest k with den x in P^k, found
    by lattice products and integer membership, minus e v_q(den)."""
    num, den = la.clear_denominators(x.coords)
    k, power = 0, P.lattice()
    while la.solve_integer(power, list(num)) is not None:
        k += 1
        power = lattice_mul(P.field, power, P.lattice())
    while den % P.q == 0:
        den //= P.q
        k -= P.e
    return k


def _rational_valuation(r, q):
    v, num, den = 0, r.numerator, r.denominator
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


@pytest.mark.parametrize("poly,basis", ARITH_FIELDS, ids=ARITH_IDS)
def test_valuation_matches_lattice_membership_and_norm(poly, basis):
    K = NumberField(poly, integral_basis=basis)
    rng = random.Random(f"val{poly}")
    for q in [2, 3, 5, 7, 11, 13]:
        primes = K.factor_prime(q)
        assert not any(P.is_unit_at(K.zero) for P in primes)
        for _ in range(10):
            x = _random_element(K, rng) * rng.choice((1, q, q * q, Fraction(1, q)))
            if rng.random() < 0.5:
                x = x * primes[0].second_generator() ** rng.randint(1, 3)
            if x.is_zero():
                continue
            vals = [P.valuation(x) for P in primes]
            assert vals == [_valuation_by_lattices(P, x) for P in primes]
            assert [P.is_unit_at(x) for P in primes] == [v == 0 for v in vals]
            assert sum(P.f_deg * v for P, v in zip(primes, vals)) == _rational_valuation(x.norm(), q)


@pytest.mark.parametrize("K", [NumberField((-1, -2, 1, 1), label="zeta7plus"), quadratic_field(-3)],
                         ids=["zeta7plus", "sqrt-3"])
def test_pow_is_repeated_multiplication(K, monkeypatch):
    rng = random.Random(7)
    xs = [K.elt([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(K.degree)])
          for _ in range(6)]
    xs = [x for x in xs if not x.is_zero()] + [K.theta, -K.one]
    for x in xs:
        for e in (0, 1, 2, 3, 4, 7, -1, -3):
            expected = K.one
            for _ in range(abs(e)):
                expected = expected * (x if e > 0 else x.inverse())
            assert x**e == expected, (x, e)
    # x**2 is one product, and it goes through NFElement.__mul__.
    calls = []
    real = NFElement.__mul__
    monkeypatch.setattr(NFElement, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert xs[0]**2 == real(xs[0], xs[0]) and len(calls) == 1

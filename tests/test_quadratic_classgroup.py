"""Independent oracles for quadratic class groups.

class_group enumerates the classes of a quadratic field by composing and
reducing binary quadratic forms.  The checks here recount the classes
without that code: reduced positive definite forms for D < 0, cycles of
reduced indefinite forms under rho for D > 0, and a brute-force norm
search for principality.
"""

import math
import random
import time

import pytest

from tclab import classunit as cu
from tclab import intlinalg as la
from tclab.numberfield import NumberField, lattice_mul, lattice_norm

from conftest import CUBICS_WITH_CLASSES, TRIVIAL_CUBICS, quadratic_field


def _squarefree(n):
    n = abs(n)
    return n > 1 and all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def reduced_form_count(D):
    """Class number of discriminant D < 0: the number of reduced primitive
    positive definite forms (a, b, c) with b^2 - 4ac = D."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def narrow_class_number(D):
    """h+ of discriminant D > 0, not a square: the number of rho-cycles of
    reduced primitive forms (a, b, c), |sqrt(D) - 2|a|| < b < sqrt(D)
    (Cohen, GTM 138, section 5.6).  rho permutes them."""
    s = math.isqrt(D)
    forms = set()
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        n = (D - b * b) // 4
        # sqrt(D) - b < 2|a| < sqrt(D) + b, with sqrt(D) irrational
        for A in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if n % A == 0 and math.gcd(math.gcd(A, b), n // A) == 1:
                forms |= {(A, b, -n // A), (-A, b, n // A)}

    def rho(f):
        a, b, c = f
        C = abs(c)
        r = (s - 2 * C) + 1 + (-b - (s - 2 * C) - 1) % (2 * C)  # sqrt(D) - 2|c| < r < sqrt(D)
        return c, r, (r * r - D) // (4 * c)

    cycles = 0
    while forms:
        f = forms.pop()
        g = rho(f)
        while g != f:
            forms.remove(g)
            g = rho(g)
        cycles += 1
    return cycles


_rng = random.Random(20261018)
IMAG_SAMPLE = sorted(_rng.sample([d for d in range(-10**4, 0) if d == -1 or _squarefree(d)], 200))


def test_imaginary_class_numbers_match_reduced_form_count():
    for d in IMAG_SAMPLE:
        K = quadratic_field(d)
        data = cu.class_group(K)
        assert data.certified
        assert data.group.order() == reduced_form_count(K.disc), d


def test_real_class_numbers_match_rho_cycles():
    for d in range(2, 2000):
        if not _squarefree(d):
            continue
        K = quadratic_field(d)
        data = cu.class_group(K)
        assert data.certified
        h_plus = narrow_class_number(K.disc)
        eps = cu.unit_group(K).fundamental_units[0]
        assert data.group.order() == (h_plus if eps.norm() == -1 else h_plus // 2), d


@pytest.mark.parametrize("poly,group", [((229, 0, 1), "Z/10"), ((194, 0, 1), "Z/20"),
                                        ((2828, -1, 1), "Z/73")])
def test_large_imaginary_class_groups(poly, group):
    t0 = time.perf_counter()
    data = cu.class_group(NumberField(poly))
    assert time.perf_counter() - t0 < 0.5
    assert data.certified and str(data.group) == group


STRUCTURE_FIELDS = [-23, -21, 229, 10]


@pytest.mark.parametrize("d", STRUCTURE_FIELDS)
def test_composed_forms_have_the_key_of_the_product(d):
    K = quadratic_field(d)
    D = K.disc
    primes = cu.class_group(K).generating_primes
    for P in primes:
        for Q in primes:
            f = cu.ideal_form(K, P.lattice())
            g = cu.ideal_form(K, Q.lattice())
            composite = cu._compose(f, g, D)
            assert composite[1] ** 2 - 4 * composite[0] * composite[2] == D
            product = cu.ideal_form(K, lattice_mul(K, P.lattice(), Q.lattice()))
            assert cu._class_key(composite, D) == cu._class_key(product, D), (P.label, Q.label)


# The rows are triangular in every degree, so the cubics with classes and
# one of class number 1 ride along.
@pytest.mark.parametrize("K", [quadratic_field(d) for d in STRUCTURE_FIELDS + [-229]]
                         + [NumberField((2828, -1, 1))]
                         + [NumberField(f, label=f"disc{disc}")
                            for f, disc, *_ in CUBICS_WITH_CLASSES + TRIVIAL_CUBICS[:1]],
                         ids=str)
def test_relation_elements_generate_their_rows(K):
    data = cu.class_group(K)
    rows = data.relation_matrix
    assert len(rows) == len(data.generating_primes)
    assert all(row[i] > 0 and not any(row[i + 1:]) for i, row in enumerate(rows))
    assert abs(la.det(rows)) == data.group.order()
    for row, alpha in zip(rows, data.relation_elements):
        assert min(row) >= 0
        assert abs(alpha.norm()) == math.prod(P.norm ** e
                                              for P, e in zip(data.generating_primes, row))
        lat = cu._ideal_power_product(K, data.generating_primes, row)
        assert la.solve_integer(lat, [int(c) for c in alpha.coords]) is not None


def _ideals_up_to(K, bound):
    """Every nonzero ideal of norm <= bound, as lower-triangular column
    bases [[a, 0], [b, c]]: v1 = a + b omega, v2 = c omega."""
    t, n = int(K.elt([0, 1]).trace()), int(K.elt([0, 1]).norm())
    for a in range(1, bound + 1):
        for c in range(1, bound // a + 1):
            for b in range(c):
                lat = [[a, 0], [b, c]]
                # omega (x0 + x1 omega) = -n x1 + (x0 + t x1) omega
                if all(_member(lat, (-n * x1, x0 + t * x1)) for x0, x1 in ((a, b), (0, c))):
                    yield lat


def _member(lat, coords):
    (a, _), (b, c) = lat
    x0, x1 = (int(x) for x in coords)
    return x0 % a == 0 and (x1 - b * (x0 // a)) % c == 0


def _brute_force_generator(K, lat):
    """An element of the ideal of norm N(I), found by scanning the
    positive definite norm form, or None."""
    N = lattice_norm(lat)
    t, n = int(K.elt([0, 1]).trace()), int(K.elt([0, 1]).norm())
    # 4 N(x0 + x1 omega) = (2 x0 + t x1)^2 + |D| x1^2
    r0, r1 = 2 * math.isqrt(N), math.isqrt(4 * N // -K.disc)
    for x1 in range(-r1, r1 + 1):
        for x0 in range((-r0 - t * x1) // 2 - 1, (r0 - t * x1) // 2 + 2):
            if x0 * x0 + t * x0 * x1 + n * x1 * x1 == N and _member(lat, (x0, x1)):
                return K.elt([x0, x1])
    return None


@pytest.mark.parametrize("d", [-23, -194])
def test_imaginary_principal_generator_matches_brute_force(d):
    K = quadratic_field(d)
    seen = principal = 0
    for lat in _ideals_up_to(K, 200):
        seen += 1
        g = cu.principal_generator(K, lat)
        assert (g is None) == (_brute_force_generator(K, lat) is None), lat
        if g is not None:
            principal += 1
            assert _member(lat, g.coords) and abs(g.norm()) == lattice_norm(lat)
    assert seen > 100 and principal > 10


# Real quadratic fields whose enumerations key many forms: the squarefree d
# among 20 seeded draws below 10^5, and Q(sqrt 93286), whose class group is
# trivial on 60 generating primes with long rho-cycles.
_rng_real = random.Random(20261019)
REAL_KEY_SAMPLE = [229, 10, 93286] + sorted(
    d for d in _rng_real.sample(range(2, 10**5), 20) if _squarefree(d))


@pytest.mark.parametrize("d", REAL_KEY_SAMPLE)
def test_shared_keys_match_fresh_keys(monkeypatch, d):
    K = quadratic_field(d)
    D = K.disc
    keyed = []
    real = cu._class_key

    def spy(form, D, keys=None):
        key = real(form, D, keys)
        keyed.append((form, key))
        return key

    monkeypatch.setattr(cu, "_class_key", spy)
    data = cu.class_group(K)
    assert data.certified and len(keyed) > len(data.generating_primes)
    for form, key in keyed:
        assert key == real(form, D), (d, form)


@pytest.mark.parametrize("d", REAL_KEY_SAMPLE)
def test_key_walks_hand_each_form_to_rho_once(monkeypatch, d):
    # principal_generator walks its own cycles (_cycle_generators); only the
    # rho steps made inside _class_key are counted.
    K = quadratic_field(d)
    inside = [False]
    walked = []
    real_key, real_rho = cu._class_key, cu._rho_step

    def key(*args):
        inside[0] = True
        try:
            return real_key(*args)
        finally:
            inside[0] = False

    def rho(form, D, root):
        if inside[0]:
            walked.append(form)
        return real_rho(form, D, root)

    monkeypatch.setattr(cu, "_class_key", key)
    monkeypatch.setattr(cu, "_rho_step", rho)
    cu.class_group(K)
    assert walked and len(walked) == len(set(walked)), d


# The reduction walks as they stood with the SL2(Z) transform a list of
# lists, the references for the walks on four ints.


def _ref_reduce_definite(form, m):
    a, b, c = form
    while True:
        k = (a - b) // (2 * a)
        if k:
            b, c = b + 2 * a * k, c + k * (b + a * k)
            m = [[row[0], row[1] + k * row[0]] for row in m]
        if a < c or (a == c and b >= 0):
            return (a, b, c), m
        a, b, c = c, -b, a
        m = [[row[1], -row[0]] for row in m]


def _ref_is_reduced(form, D):
    a, b, c = form
    s = math.isqrt(D)
    return 0 < b <= s and s - 2 * abs(a) < b


def _ref_rho(form, D):
    a, b, c = form
    s = math.isqrt(D)
    ac = abs(c)
    lo = -ac if ac > s else s - 2 * ac
    r = lo + 1 + (-b - lo - 1) % (2 * ac)
    k = (b + r) // (2 * c)
    return (c, r, (r * r - D) // (4 * c)), k


def _ref_cycle_generators(field, lat):
    form = cu.ideal_form(field, lat)
    D = field.disc
    m = [[1, 0], [0, 1]]
    seen, on_cycle = set(), False
    while True:
        if abs(form[0]) == 1:
            yield field.elt(la.mat_vec(lat, [m[0][0], m[1][0]]))
            if on_cycle:
                return
            on_cycle = _ref_is_reduced(form, D)
        elif _ref_is_reduced(form, D) and not on_cycle:
            if form in seen:
                return
            seen.add(form)
        form, k = _ref_rho(form, D)
        m = [[row[1], k * row[1] - row[0]] for row in m]


@pytest.mark.parametrize("K", [quadratic_field(229), quadratic_field(93286),
                               NumberField((-3, 3, 1), label="x^2+3x-3")], ids=str)
def test_cycle_generators_match_list_transform_walk(K):
    data = cu.class_group(K)
    primes = data.generating_primes
    lats = [la.identity(2)] + [P.lattice() for P in primes]
    lats += [lattice_mul(K, P.lattice(), Q.lattice()) for P, Q in zip(primes, primes[1:])]
    lats += [cu._ideal_power_product(K, primes, row) for row in data.relation_matrix]
    principal = 0
    for lat in lats:
        got = list(cu._cycle_generators(K, lat))
        assert got == list(_ref_cycle_generators(K, lat)), lat
        principal += bool(got)
    assert principal > len(data.relation_matrix)


def test_reduce_definite_matches_list_transform_walk():
    rng = random.Random(2028)
    for _ in range(3000):
        a = rng.randint(1, 10 ** rng.randint(1, 12))
        b = rng.randint(-10 * a, 10 * a)
        c = rng.randint(b * b // (4 * a) + 1, b * b // (4 * a) + 10 ** rng.randint(1, 12))
        form, (p, q, r, s) = cu._reduce_definite((a, b, c))
        ref_form, ref_m = _ref_reduce_definite((a, b, c), la.identity(2))
        assert (form, [[p, q], [r, s]]) == (ref_form, ref_m), (a, b, c)


def test_shared_prime_squares_are_computed_once(monkeypatch):
    # Q(sqrt -11311): class group Z/73, so the rows hold large exponents.
    K = NumberField((2828, -1, 1))
    data = cu.class_group(K)
    primes, rows = data.generating_primes, data.relation_matrix
    squared = []
    real_mul = cu.lattice_mul

    def mul(field, lat1, lat2):
        if lat1 is lat2:
            squared.append(lat1)
        return real_mul(field, lat1, lat2)

    monkeypatch.setattr(cu, "lattice_mul", mul)
    squares: dict = {}
    shared = [cu._ideal_power_product(K, primes, row, squares) for row in rows]
    computed = len(squared)
    squared.clear()
    assert shared == [cu._ideal_power_product(K, primes, row) for row in rows]
    assert computed == len(squares) < len(squared)

import functools
import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest

from tclab import classunit as cu
from tclab import intlinalg as la
from tclab.numberfield import (FieldError, NumberField, Q, is_prime, lattice_mul, lattice_norm,
                               quadratic_trace_norm)
from tclab.selmer import is_exceptional

from conftest import CUBICS_WITH_CLASSES, TRIVIAL_CUBICS, fresh_python, quadratic_field
from test_polys_embeddings import CUBIC_CORPUS

# class numbers of quadratic fields, from standard tables
CLASS_NUMBERS = {
    -1: 1, -2: 1, -3: 1, -5: 2, -14: 4, -15: 2, -23: 3, -26: 6,
    -30: 4, -47: 5, 2: 1, 5: 1, 10: 2, 79: 3, 82: 4, 226: 8,
}


@pytest.mark.parametrize("n,h", sorted(CLASS_NUMBERS.items()))
def test_class_numbers(n, h):
    data = cu.class_group(quadratic_field(n))
    assert data.certified
    assert data.group.order() == h


def test_class_group_rationals():
    data = cu.class_group(Q)
    assert data.group.is_trivial


def test_class_coords_consistent():
    K = quadratic_field(-23)
    data = cu.class_group(K)
    P = data.generating_primes[0]
    n = len(data.generating_primes)
    e = [0] * n
    e[0] = 1
    c1 = data.pres.coords(e)
    e3 = [0] * n
    e3[0] = 3
    # class number 3: the cube of any class is principal
    assert data.pres.coords(e3) == tuple([0] * len(c1))


def test_fundamental_unit_sqrt5():
    K = quadratic_field(5)
    ub = cu.unit_group(K)
    assert ub.rank == 1
    u = ub.fundamental_units[0]
    assert abs(u.norm()) == 1
    # the golden ratio (1 + sqrt 5)/2 has trace 1 and norm -1
    assert abs(u.trace()) == 1


# The least solutions of x^2 - D y^2 = +-4 for n >= 151 have y > 10^6.
@pytest.mark.parametrize("n,norm_of_unit", [(2, -1), (3, 1), (7, 1), (10, -1), (151, 1),
                                            (331, 1), (991, 1), (2089, -1), (3299, 1)])
def test_real_quadratic_units(n, norm_of_unit):
    ub = cu.unit_group(quadratic_field(n))
    assert ub.rank == 1
    assert ub.fundamental_units[0].norm() == norm_of_unit
    assert ub.torsion_order == 2


def _cf_fundamental_unit(d):
    """Coordinates (a, b) of the fundamental unit a + b omega > 1 of Q(sqrt d)
    in the basis 1, omega of quadratic_field(d), from the first convergent
    h/k of the continued fraction of omega with N(h - k omega) = +-1."""
    if d % 4 == 1:
        m = (d - 1) // 4  # omega = (1 + sqrt d)/2, a root of x^2 - x - m
        P, Q_, norm = 1, 2, lambda h, k: h * h - h * k - m * k * k
    else:
        P, Q_, norm = 0, 1, lambda h, k: h * h - d * k * k
    h0, h, k0, k = 0, 1, 1, 0
    while True:
        a = (P + math.isqrt(d)) // Q_
        h0, h, k0, k = h, a * h + h0, k, a * k + k0
        if abs(norm(h, k)) == 1:
            # h - k omega is small; its conjugate is the unit > 1.
            return (h - k, k) if d % 4 == 1 else (h, k)
        P = a * Q_ - P
        Q_ = (d - P * P) // Q_


def test_real_quadratic_units_match_continued_fraction():
    for d in range(2, 1001):
        if any(d % (q * q) == 0 for q in range(2, math.isqrt(d) + 1)):
            continue
        u = cu.unit_group(quadratic_field(d)).fundamental_units[0]
        assert tuple(u.coords) == _cf_fundamental_unit(d), d


def test_real_quadratic_units_on_every_defining_polynomial():
    # x^2 + a x + b with |a| <= 8, |b| <= 30 and a^2 - 4b > 1 not a square.
    # With t = Tr omega, 2 omega - t is a square root of the discriminant
    # D, so eps = (x + y sqrt D)/2 from quadratic_field is (x - y t)/2 +
    # y omega on the basis of x^2 + a x + b, and its unit is +-eps^(+-1).
    count = 0
    for a in range(-8, 9):
        for b in range(-30, 31):
            if a * a - 4 * b <= 1 or math.isqrt(a * a - 4 * b) ** 2 == a * a - 4 * b:
                continue
            try:
                K = NumberField((b, a, 1))
            except FieldError:  # Z[theta] is not maximal
                continue
            n = K.disc if K.disc % 4 == 1 else K.disc // 4
            e0 = cu.unit_group(quadratic_field(n)).fundamental_units[0]
            x, y = 2 * e0.coords[0] + e0.coords[1] * (n % 4 == 1), e0.coords[1]
            t, _ = quadratic_trace_norm(K)
            eps = K.elt([Fraction(x - y * t, 2), y])
            assert cu.unit_group(K).fundamental_units[0] in (eps, -eps, eps.inverse(), -eps.inverse()), (a, b)
            count += 1
    assert count == 363


def test_imaginary_quadratic_torsion():
    assert cu.unit_group(quadratic_field(-1)).torsion_order == 4
    assert cu.unit_group(quadratic_field(-3)).torsion_order == 6
    assert cu.unit_group(quadratic_field(-7)).torsion_order == 2


def _exact_order(x):
    return next(k for k in range(1, 13) if x**k == x.field.one)


@pytest.mark.parametrize("poly,w", [((1, 0, 1), 4), ((1, 1, 1), 6), ((1, -1, 1), 6)])
@pytest.mark.parametrize("shift", [-7, -4, -1, 0, 3, 5, 7])
def test_imaginary_quadratic_torsion_on_shifted_bases(poly, w, shift):
    # The basis 1, shift + theta: the roots of unity lie far outside any
    # small coordinate box once |shift| > 2.
    K = NumberField(poly, [[1, 0], [shift, 1]])
    ub = cu.unit_group(K)
    assert ub.torsion_order == w and _exact_order(ub.torsion_gen) == w


def test_imaginary_quadratic_torsion_gen_on_default_bases():
    for poly in ((1, 0, 1), (1, 1, 1)):
        assert cu.unit_group(NumberField(poly)).torsion_gen.coords == (0, -1)


def test_cubic_units():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    ub = cu.unit_group(L)
    assert ub.rank == 2
    assert ub.regulator_nonzero_witness
    for u in ub.fundamental_units:
        assert abs(u.norm()) == 1


def test_pth_root_rational():
    assert cu.pth_root(Q.elt([8]), 3) == Q.elt([2])
    assert cu.pth_root(Q.elt([-27]), 3) == Q.elt([-3])
    assert cu.pth_root(Q.elt([4]), 2) == Q.elt([2]) or cu.pth_root(Q.elt([4]), 2) == Q.elt([-2])
    assert cu.pth_root(Q.elt([10]), 2) is None
    assert cu.pth_root(Q.elt(3**201), 3) == Q.elt(3**67)
    assert cu.pth_root(Q.elt(3**201 + 1), 3) is None


def test_pth_root_rational_matches_integer_roots():
    # Q takes the general totally real path; the oracle is the exact integer
    # root of numerator and denominator: the positive root for even p, the
    # root of the same sign for odd p.
    rng = random.Random(2027)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            if rng.random() < 0.5:
                num = rng.randint(1, 10 ** rng.randint(1, 60 // p)) ** p
                den = rng.randint(1, 10 ** rng.randint(1, 30 // p)) ** p
            else:
                num = rng.randint(1, 10 ** rng.randint(1, 60))
                den = rng.randint(1, 10 ** rng.randint(1, 30))
            x = Fraction(rng.choice((1, -1)) * num, den)
            r_num = cu._iroot(abs(x.numerator), p)
            r_den = cu._iroot(x.denominator, p)
            if r_num is None or r_den is None or (x < 0 and p % 2 == 0):
                expected = None
            else:
                expected = Q.elt(Fraction(r_num if x > 0 else -r_num, r_den))
            assert cu.pth_root(Q.elt(x), p) == expected


def test_pth_root_quadratic():
    K = quadratic_field(5)
    ub = cu.unit_group(K)
    u = ub.fundamental_units[0]
    sq = u * u
    r = cu.pth_root(sq, 2)
    assert r is not None and r * r == sq
    assert cu.pth_root(u, 2) is None or (cu.pth_root(u, 2) ** 2 == u)
    cube = u * u * u
    r3 = cu.pth_root(cube, 3)
    assert r3 is not None and r3 * r3 * r3 == cube
    # Powers of a unit with ten-digit coordinates.
    u = cu.unit_group(quadratic_field(151)).fundamental_units[0]
    for p, e in ((2, 6), (3, 3), (5, 5)):
        r = cu.pth_root(u**e, p)
        assert r is not None and r**p == u**e
    assert cu.pth_root(u**5, 2) is None


def test_pth_root_of_a_cube_with_a_tiny_conjugate():
    # y = eps^2 (3 + sqrt 33331) has 1,360-bit coordinates and a conjugate
    # near 2^-1345, so the sign of x = y^3 at that embedding needs
    # intervals about 8,100 bits narrow.
    K = NumberField((-33331, 0, 1))
    eps = cu.unit_group(K).fundamental_units[0]
    y = eps**2 * K.elt([3, 1])
    assert cu.pth_root(y**3, 3) in (y, -y)


def test_pth_root_imaginary():
    K = quadratic_field(-1)
    i = K.theta
    r = cu.pth_root(K.elt([-1, 0]), 2)
    assert r is not None and r * r == K.elt([-1, 0])
    # 2i = (1+i)^2 is a square; 1+i is not
    r2 = cu.pth_root(i * 2, 2)
    assert r2 is not None and r2 * r2 == i * 2
    assert cu.pth_root(K.elt([1, 1]), 2) is None
    # Norms beyond float precision and float range.
    for x in (K.elt([12345678901, 98765432101]), K.elt([3**300, 3**300])):
        r = cu.pth_root(x * x, 2)
        assert r is not None and r * r == x * x
    assert cu.pth_root(K.elt([3**300, 3**300]) ** 2 * 3, 2) is None


@pytest.mark.parametrize("n", [-1, -3, -7, -2])
def test_pth_root_imaginary_odd_p(n):
    # The roots of y^p are y zeta for the roots of unity zeta with
    # zeta^p = 1 (three cube roots in Q(sqrt -3), one otherwise), and the
    # pick is the least omega-coordinate, then the greatest 1-coordinate.
    # pi^2 / N(pi), for pi of prime norm prime to the discriminant, has
    # norm 1 but valuation 1 at the prime that pi generates: never a p-th
    # power.
    K = quadratic_field(n)
    ub = cu.unit_group(K)
    mu = [ub.torsion_gen**k for k in range(ub.torsion_order)]
    pi = next(x for a in range(1, 20) for b in (1, 2)
              if is_prime(q := (x := K.elt([a, b])).norm().numerator) and K.disc % q)
    rng = random.Random(n)
    for p in (3, 5, 7):
        assert sum(z**p == K.one for z in mu) == (3 if n == -3 and p == 3 else 1)
        for _ in range(4):
            y = K.elt([Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 10)))
                       for _ in range(2)])
            roots = [y * z for z in mu if z**p == K.one]
            expected = min(roots, key=lambda r: (r.coords[1], -r.coords[0]))
            assert cu.pth_root(y**p, p) == expected
            for x in (y**p * 2, y**p * pi**2 / pi.norm()):
                assert cu.pth_root(x, p) is None
                assert cu._pth_root_imag_quadratic(x, p) is None


def test_pth_root_without_mpmath(tmp_path):
    # A fresh interpreter in which importing mpmath fails: the units of
    # x^4 - 5x^2 + 5 (which take p-th roots with no residue witness), the
    # witnesses of Q(i) and a cube root with a tiny conjugate.
    (tmp_path / "q4.field").write_text("poly 5 0 -5 0 1\n")
    (tmp_path / "qi.field").write_text("poly 1 0 1\n")
    commands = [["units", "--field", str(tmp_path / "q4.field")],
                ["exceptional", "--field", str(tmp_path / "qi.field")]]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from tclab import classunit as cu, cli\n"
        "from tclab.numberfield import NumberField\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.run(['--json'] + argv) == 0\n"
        "    print(json.dumps(json.loads(out.getvalue())['results']))\n"
        "K = NumberField((-33331, 0, 1))\n"
        "y = cu.unit_group(K).fundamental_units[0] ** 2 * K.elt([3, 1])\n"
        "print(cu.pth_root(y**3, 3) in (y, -y))\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    units, exceptional, cube = proc.stdout.splitlines()
    assert json.loads(units)["fundamental_units"] == ["[-3, 0, 1, 0]", "[-1, 1, 0, 0]",
                                                      "[-1, -3, 0, 1]"]
    exceptional = json.loads(exceptional)
    assert (exceptional["witness_a"], exceptional["witness_b"]) == ("[0, -1]", "[1/2, -1/2]")
    assert cube == "True"


def test_iroot():
    for k in (2, 3, 5):
        assert cu._iroot(0, k) == 0 and cu._iroot(1, k) == 1
        for r in (2, 3, 10, 12345, 10**50 + 7):
            # r^k +- 1 lie strictly between consecutive k-th powers.
            assert cu._iroot(r**k, k) == r
            assert cu._iroot(r**k - 1, k) is None
            assert cu._iroot(r**k + 1, k) is None


def test_exceptional_with_large_unit():
    # The fundamental unit of Q(sqrt 33331) has hundreds of digits, so the
    # sign and root refinement must follow its size.
    K = quadratic_field(33331)
    assert len(str(cu.unit_group(K).fundamental_units[0].coords[1])) > 100
    rep = is_exceptional(K, [])
    assert rep.condition_b and abs((rep.witness_b**4 * -4).norm()) == 1


def test_delta_p():
    # delta_p = 1 iff the field contains a primitive p-th root of unity
    assert cu.unit_group(quadratic_field(-3)).delta_p(3) == 1
    assert cu.unit_group(quadratic_field(5)).delta_p(3) == 0
    assert cu.unit_group(Q).delta_p(2) == 1
    assert cu.unit_group(Q).delta_p(3) == 0


def test_principal_generator_imag():
    K = quadratic_field(-23)
    data = cu.class_group(K)
    # ideals of norm 2 are non-principal (h = 3, minimal norm of a
    # principal non-rational ideal is larger)
    P2 = K.prime(2, 1)
    assert cu.principal_generator(K, P2.lattice()) is None
    # the full ideal (2) is principal
    from tclab.numberfield import lattice_mul
    P1, Q1 = K.factor_prime(2)
    g = cu.principal_generator(K, lattice_mul(K, P1.lattice(), Q1.lattice()))
    assert g is not None and abs(g.norm()) == 4


def test_principal_generator_real():
    K = quadratic_field(79)
    data = cu.class_group(K)
    assert data.group.order() == 3
    P3 = K.prime(3, 1)
    assert cu.principal_generator(K, P3.lattice()) is None
    # Every generator found lies in its ideal and has |N| = N(I).
    for n, h in ((79, 3), (229, 3), (10, 2)):
        K = quadratic_field(n)
        assert cu.class_group(K).group.order() == h
        found = 0
        for P in K.primes_of_norm_up_to(30):
            lat = P.lattice()
            for _ in range(h):
                g = cu.principal_generator(K, lat)
                if g is not None:
                    found += 1
                    assert la.solve_integer(lat, [int(c) for c in g.coords]) is not None
                    assert abs(g.norm()) == lattice_norm(lat)
                lat = lattice_mul(K, lat, P.lattice())
        assert found >= 5


def test_solve_relation_element():
    K = quadratic_field(-23)
    data = cu.class_group(K)
    n = len(data.generating_primes)
    target = [0] * n
    target[0] = 3
    x = cu.solve_relation_element(data, target)
    if x is not None:
        for i, P in enumerate(data.generating_primes):
            assert P.valuation(x) == target[i]


@pytest.mark.parametrize("f,disc", TRIVIAL_CUBICS)
def test_cubic_class_group_trivial(f, disc):
    K = NumberField(f)
    assert K.disc == disc
    data = cu.class_group(K)
    assert data.certified and data.group.is_trivial


# The maximal real subfields of Q(zeta_20) and Q(zeta_16), of class number 1.
@pytest.mark.parametrize("f,disc,primes", [((5, 0, -5, 0, 1), 2000, ["2_1", "5_1"]),
                                           ((2, 0, -4, 0, 1), 2048, ["2_1"])])
def test_quartic_class_group_trivial(f, disc, primes):
    K = NumberField(f)
    assert K.disc == disc
    data = cu.class_group(K)
    assert [P.label for P in data.generating_primes] == primes
    assert data.certified and str(data.group) == "0"


@pytest.mark.parametrize("f,disc,group", CUBICS_WITH_CLASSES)
def test_cubic_class_groups(f, disc, group):
    K = NumberField(f)
    assert K.disc == disc
    data = cu.class_group(K)
    assert data.certified and str(data.group) == group


def _ideal_of(x):
    """HNF of the principal ideal x O."""
    K = x.field
    m, den = K._mult_matrix(x.nums), x.den
    assert den == 1
    return la.hnf_column(m)


def test_cubic_generators_generate_their_ideals():
    for f in [f for f, _ in TRIVIAL_CUBICS[:2]] + [f for f, _, _ in CUBICS_WITH_CLASSES]:
        K = NumberField(f)
        h = cu.class_group(K).group.order()
        found = 0
        for P in K.primes_of_norm_up_to(20):
            lat = P.lattice()
            for _ in range(h):
                g = cu.principal_generator(K, lat)
                if g is not None:
                    found += 1
                    assert _ideal_of(g) == lat
                lat = lattice_mul(K, lat, P.lattice())
        assert found >= 3


def test_cubic_non_principal_prime():
    K = NumberField((-1, -8, -2, 1))  # disc 1957, class group Z/2
    lat = K.prime(2, 1).lattice()
    assert lattice_norm(lat) == 2
    assert cu.principal_generator(K, lat) is None
    square = lattice_mul(K, lat, lat)
    g = cu.principal_generator(K, square)
    assert g is not None and _ideal_of(g) == square


def log_abs_interval(iv):
    """mpmath interval of log|x| for a rational interval not containing 0."""
    lo, hi = iv
    a, b = (lo, hi) if lo > 0 else (-hi, -lo)
    # Interval division rounds outward: take the lower end of a's
    # enclosure and the upper end of b's.
    a = mpmath.iv.mpf(a.numerator) / a.denominator
    b = mpmath.iv.mpf(b.numerator) / b.denominator
    return mpmath.iv.log(mpmath.iv.mpf([a.a, b.b]))


def _t2_radii_from_scratch(field, units, N):
    """The radii of _t2_radii with the unit part computed afresh from the
    units: the reference for UnitBasis.t2_spread."""
    emb, n, iv = field.embeddings, field.degree, mpmath.iv
    logs = []
    for u in units:
        emb.element_signs(u)
        logs.append([log_abs_interval(v) for v in emb.element_intervals(u)])
    spread = sum((iv.exp(sum((abs(row[i]) for row in logs), iv.mpf(0))) for i in range(n)),
                 iv.mpf(0))
    scale = iv.exp(iv.log(N) * 2 / n)
    return tuple(int(mpmath.ceil(mpmath.mpf(r.b))) for r in (scale * n, scale * spread))


def test_t2_radii_from_the_cached_spread(monkeypatch):
    # Every principality test of the class groups of the cubic corpus, the
    # cubics of disc 1957 and 2597 and the two quartics.
    fields = ([NumberField(f) for f in CUBIC_CORPUS]
              + [NumberField(f) for f, _, _ in CUBICS_WITH_CLASSES[:2]]
              + [NumberField((5, 0, -5, 0, 1)), NumberField((2, 0, -4, 0, 1))])
    real, calls = cu._t2_radii, []

    def checked(ub, N):
        got = real(ub, N)
        assert got == _t2_radii_from_scratch(ub.field, ub.fundamental_units, N)
        calls.append((ub, ub.t2_spread))
        return got

    monkeypatch.setattr(cu, "_t2_radii", checked)
    for K in fields:
        cu.class_group(K)
    assert len(calls) >= 62 and {ub.field for ub, _ in calls} >= set(fields[-4:])
    # The spread is computed once per unit group and then read.
    assert all(spread is ub.t2_spread for ub, spread in calls)


def test_unit_search_skips_dependent_candidates(monkeypatch):
    K = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = cu.unit_group(K).fundamental_units
    candidates = [u1, -(u1 * u1), u1.inverse(), u2]
    seen = []
    real = cu.certified_log_rank

    def counting(field, units):
        seen.append(list(units))
        return real(field, units)

    def shells(field, lat, N, radius, last=None):
        # One shell of units, listed in the order the search must take it.
        shell = [(t2, u) for t2, u in enumerate(candidates, 1)]
        return (lambda u: True), (lambda u: u), iter([shell])

    monkeypatch.setattr(cu, "certified_log_rank", counting)
    monkeypatch.setattr(cu, "_t2_shells", shells)
    assert cu._unit_system_by_t2(K, 2) == [u1, u2]
    assert seen == [[u1], [u1, u2]]


def test_unit_search_tests_norms_only_until_the_units_are_found(monkeypatch):
    # x^3 - 9x - 6 (disc 1944): its second unit, of T2 = 579, lies in the
    # shell (384, 1536] of 2,509 points, and 648 norm tests reach it in T2
    # order.  A walk that also tests the norms of the next shell, about 8x
    # as large, makes over 100,000.
    K = NumberField((-6, -9, 0, 1))
    K.embeddings
    tests = []
    real = la.det
    monkeypatch.setattr(la, "det", lambda m: tests.append(1) or real(m))
    units = cu._unit_system_by_t2(K, 2)
    assert len(units) == 2 and len(tests) <= 2000


# Totally real fields for the p-th root tests: Q, Q(sqrt 5), and cubics of
# the benchmark corpus of disc 49 (zeta7plus), 81, 837 and 892.
ROOT_FIELDS = {
    "q": lambda: Q,
    "sqrt5": lambda: quadratic_field(5),
    "zeta7plus": lambda: NumberField((-1, -2, 1, 1), label="zeta7plus"),
    "disc81": lambda: NumberField((-1, -3, 0, 1)),
    "disc837": lambda: NumberField((-1, -6, 0, 1)),
    "disc892": lambda: NumberField((-2, -7, -2, 1)),
}


def _random_element(K, rng):
    den = rng.choice((1, 1, 2, 3, 10))
    return K.elt([Fraction(rng.randint(-9, 9), den) for _ in range(K.degree)])


@pytest.mark.parametrize("name", sorted(ROOT_FIELDS))
def test_residue_witness_is_sound(name):
    K = ROOT_FIELDS[name]()
    rng = random.Random(name)
    for p in (2, 3, 5):
        witnessed = 0
        for _ in range(8):
            y = _random_element(K, rng)
            if y.is_zero():
                continue
            # A p-th power never has a witness, so its root is still found.
            assert not cu._residue_witness(y**p, p)
            z = cu.pth_root(y**p, p)
            assert z is not None and z**p == y**p
            x = _random_element(K, rng)
            if not x.is_zero() and cu._residue_witness(x, p):
                witnessed += 1
                assert cu._pth_root_totally_real(x, p) is None
        assert witnessed >= 4


def _mid(iv):
    """The midpoint of a rational interval as an mpmath number."""
    s = iv[0] + iv[1]
    return mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator) / 2


def _unit_exponents(K, v, units):
    """Integers e with v = +-prod u_j^e_j: proposed from the log vectors,
    then checked exactly."""
    emb = K.embeddings
    with mpmath.workdps(30):
        logs = [[mpmath.log(abs(_mid(iv))) for iv in emb.element_intervals(x, Fraction(1, 2**100))]
                for x in units + [v]]
        rows = [row[:len(units)] for row in logs]
        sol = mpmath.lu_solve(mpmath.matrix(rows[:-1]).T, mpmath.matrix(rows[-1]))
    e = [int(mpmath.nint(c)) for c in sol]
    prod = K.one
    for u, k in zip(units, e):
        prod = prod * u**k
    assert v in (prod, -prod)
    return e


def test_saturation_still_finds_roots(monkeypatch):
    K = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = cu.unit_group(K).fundamental_units
    entered = []
    real = cu._pth_root_totally_real

    def counting(x, p):
        entered.append(p)
        return real(x, p)

    monkeypatch.setattr(cu, "_pth_root_totally_real", counting)
    # The last two systems hide the root behind a sign: -u1^3 = (-u1)^3 is a
    # cube, and -u1^2 is a square only up to sign.
    for units, primes in (([u1**2, u2], (2, 3, 5)), ([u1, u2**3], (2, 3, 5)),
                          ([-u1**3, u2], (3,)), ([-u1**2, u2], (2,))):
        saturated = cu._saturate(K, units, primes)
        # The regulators agree: the exponent matrix on u1, u2 is unimodular.
        assert abs(la.det([_unit_exponents(K, v, [u1, u2]) for v in saturated])) == 1
    # The squares and cubes have no witness, so the analytic root found them.
    assert 2 in entered and 3 in entered


def test_saturation_takes_one_pass_per_prime(monkeypatch):
    # The cube root of u2^3 found at p = 3 leaves the system saturated at 2,
    # so the search at 2 is not repeated: its 3 exponent vectors, each with
    # both signs, are tried once.
    K = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = cu.unit_group(K).fundamental_units
    asked = []
    real = cu.pth_root
    monkeypatch.setattr(cu, "pth_root", lambda x, p: asked.append(p) or real(x, p))
    saturated = cu._saturate(K, [u1, u2**3], (2, 3, 5))
    assert asked.count(2) == 6 and 3 in asked
    assert abs(la.det([_unit_exponents(K, v, [u1, u2]) for v in saturated])) == 1


def _first_root_in_product_order(K, units, p):
    """Reference for _pth_root_of_product: the first hit over every
    nonzero e in [0, p)^r in product order, with u^1, ..., u^(p-1) from
    **.  Returns (i, root, e)."""
    powers = [[u**e for e in range(1, p)] for u in units]
    for exps in itertools.product(range(p), repeat=len(units)):
        factors = [pw[e - 1] for pw, e in zip(powers, exps) if e]
        if not factors:
            continue
        cand = functools.reduce(operator.mul, factors)
        for x in (cand, -cand) if p == 2 else (cand,):
            root = cu.pth_root(x, p)
            if root is not None and root not in (K.one, -K.one):
                return next(i for i, e in enumerate(exps) if e), root, exps
    return None


def test_pth_root_of_product_tries_one_vector_per_line(monkeypatch):
    # The first p-th root in product order: u1 (u1 u2^3)^2 = (u1 u2^2)^3,
    # u1 (u1^2 u2^5)^2 = (u1 u2^2)^5, (u1 u2^2) (-u1) = -(u1 u2)^2, and
    # (u2^3)^1, which comes before (u1^3)^1.
    K = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = cu.unit_group(K).fundamental_units
    for units, p, hit in (([u1, u1 * u2**3], 3, (1, 2)), ([u1, u1**2 * u2**5], 5, (1, 2)),
                          ([u1 * u2**2, -u1], 2, (1, 1)), ([u1**3, u2**3], 3, (0, 1))):
        i, root, exps = _first_root_in_product_order(K, units, p)
        assert exps == hit and cu._pth_root_of_product(K, units, p) == (i, root)
        prod = units[0]**hit[0] * units[1]**hit[1]
        assert root**p in (prod, -prod)
    # On a saturated system every line is tried once: 3 vectors with both
    # signs at p = 2, (p^2 - 1)/(p - 1) = p + 1 vectors at p = 3 and 5.
    asked = []
    real = cu.pth_root
    monkeypatch.setattr(cu, "pth_root", lambda x, p: asked.append(p) or real(x, p))
    for p in (2, 3, 5):
        assert cu._pth_root_of_product(K, [u1, u2], p) is None
    assert [asked.count(p) for p in (2, 3, 5)] == [6, 4, 6]


def test_unit_group_saturates_the_cached_group_at_a_new_p(monkeypatch):
    # x^3 + 3x^2 - 4x - 1: one T2 walk serves every p, each new p only
    # saturates the cached units further, and no p is dropped.
    K = NumberField((-1, -4, 3, 1))
    walks = []
    real = cu._unit_system_by_t2
    monkeypatch.setattr(cu, "_unit_system_by_t2",
                        lambda field, rank: walks.append(rank) or real(field, rank))
    ub0 = cu.unit_group(K)
    first = ub0.fundamental_units
    for p in (7, 11, 7, 13):
        ub = cu.unit_group(K, p)
    assert walks == [2]
    assert ub.saturated_at == (2, 3, 5, 7, 11, 13) and cu.unit_group(K, 11) is ub
    assert abs(la.det([_unit_exponents(K, v, first) for v in ub.fundamental_units])) == 1
    # Re-saturation replaces the units and keeps everything else.
    assert ub is not ub0 and ub0.saturated_at == (2, 3, 5)
    assert (ub.field, ub.torsion_order, ub.torsion_gen, ub.regulator_nonzero_witness) == (
        ub0.field, ub0.torsion_order, ub0.torsion_gen, ub0.regulator_nonzero_witness)
    # Q(sqrt -3): torsion of order 6 and no fundamental units.
    E = quadratic_field(-3)
    w0 = cu.unit_group(E)
    w7 = cu.unit_group(E, 7)
    assert w7.saturated_at == (2, 3, 5, 7) and w7.fundamental_units == []
    assert (w7.torsion_order, w7.torsion_gen, w7.regulator_nonzero_witness) == (
        6, w0.torsion_gen, True)


# The saturated unit systems that the coordinate-box search, which the T2
# shell walk replaced, gave on the cubic corpus, the cubics with classes
# and the two quartics (basis coordinates).
BOX_SEARCH_UNITS = {
    (-1, -2, 1, 1): [[0, -1, 0], [-1, -1, 0]],
    (-1, -3, 0, 1): [[0, -1, 0], [-1, -1, 0]],
    (-1, -3, 1, 1): [[0, -1, 0], [-1, -1, 1]],
    (-1, -3, 2, 1): [[0, -1, 0], [-1, 1, 0]],
    (-1, -4, -1, 1): [[0, -1, 0], [-1, -1, 0]],
    (-1, -4, 0, 1): [[0, -1, 0], [-2, -1, 0]],
    (-1, -4, 1, 1): [[0, -1, 0], [-1, -1, 1]],
    (-1, -4, 2, 1): [[0, -1, 0], [-2, 0, 1]],
    (-1, -4, 3, 1): [[0, -1, 0], [-1, 1, 0]],
    (-1, -5, -1, 1): [[0, -1, 0], [-1, 1, 1]],
    (-1, -5, -2, 1): [[0, -1, 0], [-1, -1, 0]],
    (-1, -5, 0, 1): [[0, -1, 0], [-2, -1, 0]],
    (-1, -5, 2, 1): [[0, -1, 0], [-1, -1, 1]],
    (-1, -6, -1, 1): [[0, -1, 0], [-2, -1, 0]],
    (-1, -6, -2, 1): [[0, -1, 0], [-3, -2, 0]],
    (-1, -6, 0, 1): [[0, -1, 0], [-3, -6, -2]],
    (-1, -6, 1, 1): [[0, -1, 0], [-2, 1, 0]],
    (-1, -8, -2, 1): [[0, -1, 0], [-2, -1, 0]],
    (-1, -8, 2, 1): [[0, -1, 0], [-2, 1, 0]],
    (-2, -3, 3, 1): [[-1, 1, 0], [-1, -2, 0]],
    (-2, -4, 1, 1): [[-1, -1, 1], [-1, -2, 0]],
    (-2, -4, 2, 1): [[-1, -1, 1], [-1, -2, 1]],
    (-2, -4, 3, 1): [[-1, -2, 2], [-3, 1, 1]],
    (-2, -6, -1, 1): [[-1, -2, 2], [-1, -3, -1]],
    (-2, -6, 0, 1): [[-1, -2, 1], [-1, -3, 0]],
    (-2, -7, -2, 1): [[-1, 1, 1], [-1, -3, 1]],
    (-3, -6, 1, 1): [[-1, -2, 0], [-1, -2, 1]],
    (-3, -7, -1, 1): [[-2, -1, 0], [-1, -2, 0]],
    (-9, -13, -2, 1): [[-1, -1, 0], [-2, -1, 0]],
    (2, 0, -4, 0, 1): [[-1, -1, 0, 0], [-1, 0, 1, 0], [-1, -1, 1, 0]],
    (5, 0, -5, 0, 1): [[-1, -1, 0, 0], [-2, 0, 1, 0], [-2, -1, 0, 0]],
}


@pytest.mark.parametrize("f", sorted(BOX_SEARCH_UNITS))
def test_units_generate_the_box_search_unit_group(f):
    K = NumberField(f)
    units = cu.unit_group(K).fundamental_units
    old = [K.elt(c) for c in BOX_SEARCH_UNITS[f]]
    # Each old unit is +- a product of the new ones, and the exponent
    # matrix is unimodular: both systems generate the same group.
    assert abs(la.det([_unit_exponents(K, v, units) for v in old])) == 1


# sha256 of the units (nums, den), saturated_at, and the class group data
# (invariant factors, generating prime labels, relation matrix, relation
# elements' nums and den) of the cubic corpus, the cubics with classes and
# x^4 - 5x^2 + 5, x^4 - 4x^2 + 2.  A change that keeps these outputs by
# construction (the integer square completion of fincke_pohst, the roots
# of f mod q by evaluation) must keep the digest.
UNIT_AND_CLASS_DIGEST = "73dd319f56ffc97e8afe6f6274dbc29d416c00044fafdcb770db2b464fef782d"


def test_units_and_class_groups_keep_their_digest():
    fs = (CUBIC_CORPUS + [f for f, _, _ in CUBICS_WITH_CLASSES]
          + [(5, 0, -5, 0, 1), (2, 0, -4, 0, 1)])
    digest = hashlib.sha256()
    for f in fs:
        K = NumberField(f)
        ub, cg = cu.unit_group(K), cu.class_group(K)
        digest.update(repr((
            f, [(u.nums, u.den) for u in ub.fundamental_units], ub.saturated_at,
            cg.group.invariant_factors, [P.label for P in cg.generating_primes],
            cg.relation_matrix, [(e.nums, e.den) for e in cg.relation_elements])).encode())
    assert digest.hexdigest() == UNIT_AND_CLASS_DIGEST


# The flag says that the units the T2 search finds are saturated at 2, 3
# and 5 already, so that the residue witnesses settle every root test and
# no analytic root is entered.  That holds for the corpus polynomials of
# disc 49 and 837 and for x^3 - x^2 - 2x + 1, the first of them under
# theta -> -theta.  Where an analytic root is entered, it must be for a
# p-th power, which it finds (see also test_saturation_still_finds_roots).
@pytest.mark.parametrize("f,corpus", [((-1, -2, 1, 1), True), ((-1, -6, 0, 1), True),
                                      ((1, -2, -1, 1), True)])
def test_analytic_root_only_for_pth_powers(monkeypatch, f, corpus):
    calls, entered = [], []
    real_root, real_analytic = cu.pth_root, cu._pth_root_totally_real

    def counting_root(x, p):
        calls.append(p)
        return real_root(x, p)

    def counting_analytic(x, p):
        root = real_analytic(x, p)
        entered.append(root)
        return root

    monkeypatch.setattr(cu, "pth_root", counting_root)
    monkeypatch.setattr(cu, "_pth_root_totally_real", counting_analytic)
    ub = cu.unit_group(NumberField(f))
    assert ub.rank == 2 and ub.regulator_nonzero_witness
    assert sorted(set(calls)) == [2, 3, 5]
    assert all(root is not None for root in entered)
    assert (not entered) == corpus

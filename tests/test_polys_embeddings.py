import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
import sympy

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYP = True
except ImportError:  # pragma: no cover
    HAVE_HYP = False

from tclab import intlinalg as la
from tclab import polys
from tclab.embeddings import RealEmbeddings, _poly_interval, certified_log_rank
from tclab.numberfield import FieldError, NumberField

from conftest import fresh_python, quadratic_field


def test_gfp_factor_splits():
    # x^2 - 5 mod 11 = (x - 4)(x + 4)
    factors = polys.gfp_factor((6, 0, 1), 11)
    assert len(factors) == 2
    assert sorted(len(f) - 1 for f, _ in factors) == [1, 1]


def test_gfp_factor_irreducible():
    factors = polys.gfp_factor((1, 0, 1), 7)  # x^2 + 1 mod 7
    assert len(factors) == 1
    assert len(factors[0][0]) - 1 == 2


def _monic_polys(q, d):
    """Every monic polynomial of degree d over F_q."""
    return [tail + (1,) for tail in itertools.product(range(q), repeat=d)]


def _gfp_power(g, e, q):
    out = (1,)
    for _ in range(e):
        out = polys.gfp_mul(out, g, q)
    return out


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gfp_factor_of_every_monic_quartic_by_brute_force(q):
    # Every monic f of degree <= 4, squarefree or not: the factors multiply
    # back to f, come sorted by (degree, coefficients), and are
    # irreducible, since no monic h of degree <= deg g / 2 divides g.
    small = [h for d in (1, 2) for h in _monic_polys(q, d)]
    irreducible = {}
    for d in range(1, 5):
        for f in _monic_polys(q, d):
            factors = polys.gfp_factor(f, q)
            prod = (1,)
            for g, e in factors:
                prod = polys.gfp_mul(prod, _gfp_power(g, e, q), q)
            assert prod == f, (q, f, factors)
            keys = [(len(g), g) for g, _ in factors]
            assert keys == sorted(set(keys)) and all(e >= 1 for _, e in factors)
            for g, _ in factors:
                if g not in irreducible:
                    irreducible[g] = g[-1] == 1 and all(
                        polys.gfp_mod(g, h, q) for h in small if 2 * (len(h) - 1) <= len(g) - 1)
                assert irreducible[g], (q, f, g)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gfp_powmod_on_reducible_moduli(q):
    # gfp_powmod against repeated gfp_mul and gfp_mod, on x - 1 and on
    # reducible moduli of degree 2 to 4 with repeated and distinct factors,
    # given monic or scaled by 2, and on bases given unreduced.
    rng = random.Random(q)
    moduli = [(q - 1, 1), polys.gfp_mul((1, 1), (1, 1), q), polys.gfp_mul((0, 1), (1, 0, 1), q),
              _gfp_power((1, 1), 4, q), polys.gfp_mul((0, 1, 1), (2, 1, 1), q)]
    moduli += [tuple(c * 2 for c in g) for g in moduli if q > 2]
    for g in moduli:
        for _ in range(12):
            f = tuple(rng.randrange(-3 * q, 3 * q) for _ in range(rng.randrange(7)))
            expected = polys.gfp_mod((1,), g, q)
            for e in range(40):
                assert polys.gfp_powmod(f, e, g, q) == expected, (q, f, e, g)
                expected = polys.gfp_mod(polys.gfp_mul(expected, f, q), g, q)


def test_residue_field_cyclic():
    F = polys.ResidueField(7, (1, 0, 1))  # F_49
    assert F.order == 49
    g = F.subgroup_generator(48)
    assert not F.is_zero(g)
    assert F.pow(g, 48) == F.one
    assert F.pow(g, 24) != F.one


def test_residue_field_dlog():
    F = polys.ResidueField(11, (9, 1))
    g = F.subgroup_generator(10)
    for k in (0, 1, 5, 7):
        assert F.dlog(F.pow(g, k), g, 10) == k


@pytest.mark.parametrize("q", [2, 3, 5, 13, 101])
def test_residue_field_pow_degree_one_is_gfp_powmod(q):
    # Residue degree 1 takes the integer pow(r, e, q); the polynomial
    # square-and-multiply is the reference, for a modulus t - c, c != 0.
    F = polys.ResidueField(q, (q - 1, 1))
    assert F.deg == 1
    for a in F.elements():
        for e in range(61):
            assert F.pow(a, e) == polys.gfp_powmod(a, e, F.modulus, q)


# Monic integer polynomials of degree 2-6 with |a_i| <= 20; sympy is the
# oracle for the exact routines in polys that replace it at run time.
def _sample(count=150):
    rng = random.Random(20261018)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        out.append(tuple(rng.randint(-20, 20) for _ in range(n)) + (1,))
    return out


SAMPLE = _sample()
X = sympy.Symbol("x")


def sympy_poly(f):
    return sympy.Poly(list(reversed(f)), X)


def test_discriminant_matches_sympy():
    for f in SAMPLE:
        assert polys.discriminant(f) == sympy.discriminant(sympy_poly(f).as_expr(), X), f


def test_count_real_roots_matches_sympy():
    for f in SAMPLE:
        assert len(polys.real_root_cells(f)) == sympy_poly(f).count_roots(), f


# Products of monic factors of degrees 2+2, 2+3, 3+3, 2+4 and 2+2+2, with
# coefficients up to 10 or up to 10^6, the latter near the Mignotte bound's
# reach.
def _products(count=60):
    rng = random.Random(20261020)
    out = []
    for i in range(count):
        split = [(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2)][i % 5]
        B = 10**6 if i % 3 == 0 else 10
        f = (1,)
        for d in split:
            f = polys.poly_mul(f, tuple(rng.randint(-B, B) for _ in range(d)) + (1,))
        out.append(f)
    return out


def test_is_irreducible_matches_sympy():
    for f in SAMPLE + _products():
        assert polys.is_irreducible(f, polys.real_root_cells(f)) == sympy_poly(f).is_irreducible, f


def test_integer_roots_of_the_squarefree_part():
    # Products of (x - r) with repeated r, some times an irreducible
    # factor: the squarefree part is sympy's, and its integer roots in
    # (-B, B] are the r found by brute force.
    rng = random.Random(25)
    for _ in range(300):
        f = (1,)
        for r in (rng.randint(-9, 9) for _ in range(rng.randint(1, 5))):
            f = polys.poly_mul(f, (-r, 1))
        f = polys.poly_mul(f, rng.choice([(1,), (1, 0, 1), (-2, 0, 1), (1, 1, 1)]))
        g = polys.squarefree_part(f)
        assert sympy_poly(g) == sympy.sqf_part(sympy_poly(f)), f
        roots = [r for r in range(-10, 10) if polys.poly_eval(f, r) == 0]
        assert polys.integer_roots(g, polys.real_root_cells(g)) == roots, f
        B = rng.randint(1, 10)
        assert polys.integer_roots(g, polys.real_root_cells(g, B)) == [r for r in roots if -B < r <= B]


# The reference for real_root_cells: the Sturm isolation in Fraction
# arithmetic that it replaced, bisecting (-B, B] for B = 1 + max |a_i / a_n|
# until each half-open piece holds one root and, when width is given, is
# narrower than width.
def _fraction_sturm(f):
    seq = [tuple(f), polys.poly_deriv(f)]
    while True:
        r = [Fraction(c) for c in seq[-2]]
        g = seq[-1]
        while len(r) >= len(g):
            c = r[-1] / g[-1]
            for i, gc in enumerate(g):
                r[len(r) - len(g) + i] -= c * gc
            r = list(polys.poly_trim(r[:-1]))
        if not r:
            return seq
        den = math.lcm(*(c.denominator for c in r))
        r = [-int(c * den) for c in r]
        content = math.gcd(*r)
        seq.append(tuple(c // content for c in r))


def _variations(seq, x):
    signs = [v for v in (polys.poly_eval(p, x) for p in seq) if v]
    return sum(a * b < 0 for a, b in zip(signs, signs[1:]))


def real_root_intervals(f, width=None):
    seq = _fraction_sturm(f)
    bound = 1 + max(abs(Fraction(c, f[-1])) for c in f[:-1])
    stack = [(-bound, bound, _variations(seq, -bound), _variations(seq, bound))]
    out = []
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and (width is None or hi - lo < width):
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = _variations(seq, mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(out)


def _as_intervals(cells):
    return [(Fraction(L, 2**E), Fraction(L + W, 2**E)) for L, W, E in cells]


def _sturm_count(seq, lo, hi):
    return _variations(seq, lo) - _variations(seq, hi)


def test_real_root_intervals_isolate():
    for f in SAMPLE:
        if not polys.is_irreducible(f, polys.real_root_cells(f)):
            continue
        seq = polys.sturm_sequence(f)
        ivs = _as_intervals(polys.real_root_cells(f))
        assert len(ivs) == sympy_poly(f).count_roots(), f
        for lo, hi in ivs:
            assert hi - lo < 1, f
            assert polys.poly_eval(f, lo) * polys.poly_eval(f, hi) < 0, f
            assert _sturm_count(seq, lo, hi) == 1, f
        assert all(a[1] <= b[0] for a, b in zip(ivs, ivs[1:])), f


# The 26 polynomials of the totally real cubic benchmark corpus (disc <= 1000).
CUBIC_CORPUS = [
    (-2, -7, -2, 1), (-1, -6, -2, 1), (-1, -5, -2, 1), (-3, -7, -1, 1), (-2, -6, -1, 1),
    (-1, -6, -1, 1), (-1, -5, -1, 1), (-1, -4, -1, 1), (-2, -6, 0, 1), (-1, -6, 0, 1),
    (-1, -5, 0, 1), (-1, -4, 0, 1), (-1, -3, 0, 1), (-3, -6, 1, 1), (-1, -6, 1, 1),
    (-2, -4, 1, 1), (-1, -4, 1, 1), (-1, -3, 1, 1), (-1, -2, 1, 1), (-1, -5, 2, 1),
    (-2, -4, 2, 1), (-1, -4, 2, 1), (-1, -3, 2, 1), (-2, -4, 3, 1), (-1, -4, 3, 1),
    (-2, -3, 3, 1),
]
SQRT_POLYS = [(-d, 0, 1) for d in range(-999, 1000)
              if d not in (0, 1) and all(d % (k * k) for k in range(2, 32))]


def test_real_root_cells_match_fraction_bisection():
    # Equal to the reference's width-1 pass, and each cell descends, on the
    # same dyadic grid, from the reference's isolating interval.
    polys_checked = SAMPLE + CUBIC_CORPUS + SQRT_POLYS
    assert len(CUBIC_CORPUS) == 26 and len(SQRT_POLYS) == 1215
    for f in polys_checked:
        assert polys.sturm_sequence(f) == _fraction_sturm(f), f
        cells = _as_intervals(polys.real_root_cells(f))
        assert cells == real_root_intervals(f, width=1), f
        for (lo, hi), (a, b) in zip(cells, real_root_intervals(f)):
            k = (b - a) / (hi - lo)
            assert a <= lo < hi <= b and k.denominator == 1 and k.numerator.bit_count() == 1, f
            assert ((lo - a) / (hi - lo)).denominator == 1, f


def test_one_sturm_isolation_per_field(monkeypatch):
    calls = []
    isolate, sturm = polys.real_root_cells, polys.sturm_sequence

    def counting_isolate(f):
        calls.append("cells")
        return isolate(f)

    def counting_sturm(f):
        calls.append("sturm")
        return sturm(f)

    monkeypatch.setattr(polys, "real_root_cells", counting_isolate)
    monkeypatch.setattr(polys, "sturm_sequence", counting_sturm)
    for f in [(-1, -2, 1, 1), (-5, 0, 1), (-1, 3, 6, -4, -5, 1, 1)]:
        calls.clear()
        K = NumberField(f, integral_basis=_HALVES if f == (-5, 0, 1) else None)
        K.embeddings.element_signs(K.theta)
        assert calls == ["cells", "sturm"], f
        assert K.signature == (K.degree, 0)


@pytest.mark.parametrize("f,expected", [
    ((1, 0, 0, 0, 1), True),           # x^4 + 1
    ((1, 0, -10, 0, 1), True),         # x^4 - 10x^2 + 1
    ((4, 0, 0, 0, 1), False),          # x^4 + 4
    ((1, 0, 0, 0, 0, 0, 1), False),    # x^6 + 1
])
def test_is_irreducible_fallback(monkeypatch, f, expected):
    # Every pattern mod q leaves a factor degree open, so the answer comes
    # from the Hensel lift, with sympy blocked.
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert polys.is_irreducible(f, polys.real_root_cells(f)) == expected


@pytest.mark.parametrize("f", [
    (1, -2, 1),                 # (x - 1)^2
    (1, -1, -1, 1),             # (x - 1)^2 (x + 1)
    (1, 0, 2, 0, 1),            # (x^2 + 1)^2
    (1, 0, 3, 0, 3, 0, 1),      # (x^2 + 1)^3
])
def test_is_irreducible_repeated_factor(monkeypatch, f):
    # The root isolation needs a squarefree polynomial, so NumberField
    # refuses disc(f) = 0 before it runs.
    assert polys.discriminant(f) == 0
    monkeypatch.setattr(polys, "real_root_cells", None)
    with pytest.raises(FieldError, match="reducible"):
        NumberField(f)


@pytest.mark.parametrize("f,expected", [
    ((-(10**40), 0, 1), False),                   # x^2 - 10^40
    ((-(10**40) - 1, 0, 1), True),
    ((-(10**20), 1, -(10**20), 1), False),        # (x - 10^20)(x^2 + 1)
    ((-(10**20) - 1, 1, -(10**20), 1), True),
])
def test_is_irreducible_large_constant(f, expected):
    # The integer-root test must not enumerate divisors of a_0.
    assert polys.is_irreducible(f, polys.real_root_cells(f)) == expected


if HAVE_HYP:
    @given(st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_residue_respects_mul_hyp(a, b):
        K = quadratic_field(5)
        P = K.prime(19, 1)
        x = K.elt([a, b])
        if x.is_zero() or P.valuation(x) != 0:
            return
        F = P.residue_field
        assert P.residue(x * x) == F.mul(P.residue(x), P.residue(x))


def test_real_embeddings_signs():
    K = quadratic_field(5)
    emb = RealEmbeddings(K)
    signs = emb.element_signs(K.theta)
    assert sorted(signs) == [-1, 1]


# References in Fraction arithmetic: the naive interval Horner and the
# one-bit bisection that RealEmbeddings must reproduce exactly.
def _fraction_poly_interval(coeffs, iv):
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        prods = [lo * iv[0], lo * iv[1], hi * iv[0], hi * iv[1]]
        lo, hi = min(prods) + c, max(prods) + c
    return lo, hi


class _BisectionEmbeddings:
    def __init__(self, K):
        self.f = K.min_poly
        self.intervals = [self._refine(iv, Fraction(1, 2**20))
                          for iv in real_root_intervals(self.f)]

    def _refine(self, iv, eps):
        lo, hi = iv
        if lo == hi:
            return iv
        slo = polys.poly_eval(self.f, lo) > 0
        while hi - lo > eps:
            mid = (lo + hi) / 2
            v = polys.poly_eval(self.f, mid)
            if v == 0:
                return mid, mid
            lo, hi = (mid, hi) if (v > 0) == slo else (lo, mid)
        return lo, hi

    def refine_all(self, eps):
        self.intervals = [self._refine(iv, eps) for iv in self.intervals]

    def element_intervals(self, x, eps=None):
        if eps is not None:
            self.refine_all(eps)
        return [_fraction_poly_interval(x.power_coords(), iv) for iv in self.intervals]

    def element_signs(self, x):
        signs, eps = [], Fraction(1, 2**20)
        for k in range(len(self.intervals)):
            while True:
                lo, hi = _fraction_poly_interval(x.power_coords(), self.intervals[k])
                if lo > 0 or hi < 0 or lo == hi == 0:
                    signs.append((lo > 0) - (hi < 0))
                    break
                eps /= 2**10
                self.refine_all(eps)
        return signs


if HAVE_HYP:
    _rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=2**40)

    @given(st.lists(_rationals, min_size=1, max_size=7), _rationals, _rationals)
    @settings(max_examples=200, deadline=None)
    def test_poly_interval_matches_fraction_horner_hyp(coeffs, a, b):
        lo, hi = min(a, b), max(a, b)
        nums, den = la.clear_denominators(coeffs)
        q = math.lcm(lo.denominator, hi.denominator)
        assert (_poly_interval(nums, den, int(lo * q), int(hi * q), q)
                == _fraction_poly_interval(coeffs, (lo, hi)))


_HALVES = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]


@pytest.mark.parametrize("f,basis", [
    ((-1, -2, 1, 1), None),   # zeta7plus
    ((-1, -3, 0, 1), None),   # three fields of the cubic benchmark corpus
    ((-1, -6, 0, 1), None),
    ((-2, -4, 2, 1), None),
    ((-7, 1), None),          # Q as x - 7, whose root a midpoint hits
    ((-33331, 0, 1), None),
    ((-5, 0, 1), _HALVES),    # Q(sqrt 5) on the basis 1, (1 + sqrt 5) / 2
    ((-2, 1), None),          # Q as x - 2, whose root no midpoint hits
])
def test_refined_intervals_match_bisection(f, basis):
    K = NumberField(f, integral_basis=basis)
    new, ref = RealEmbeddings(K), _BisectionEmbeddings(K)
    assert new.intervals == ref.intervals
    rng = random.Random(f"cells{f}")
    for step in range(24):
        size = 10 ** rng.randint(1, 30)
        x = K.elt([Fraction(rng.randint(-size, size), rng.randint(1, 40)) for _ in range(K.degree)])
        if x.is_zero():
            continue
        op = step % 4
        if op == 0:
            assert new.element_signs(x) == ref.element_signs(x)
        elif op == 1:
            eps = Fraction(1, 2 ** rng.randint(0, 160))
            assert new.element_intervals(x, eps) == ref.element_intervals(x, eps)
        elif op == 2:
            eps = Fraction(rng.randint(1, 10**6), 3 ** rng.randint(0, 100))
            new.refine_all(eps)
            ref.refine_all(eps)
        else:
            # d theta - c, for c / d within 2^-t of a root, has a conjugate
            # near 0, which takes many rounds to separate from 0.
            k = rng.randrange(len(ref.intervals))
            c = ref._refine(ref.intervals[k], Fraction(1, 2 ** rng.randint(20, 60)))[0]
            y = K.theta * c.denominator - c.numerator
            if not y.is_zero():
                assert new.element_signs(y) == ref.element_signs(y)
        assert new.intervals == ref.intervals, step


def test_certified_log_rank_cubic():
    # -1 is a cube, so the characters of order 3 see u1 and -u1 alike; they
    # vanish on the cube u1^3, which those of order 5 tell apart from u2.
    # Independent systems are certified; dependent ones never, whatever
    # the signs.
    from tclab.classunit import unit_group
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = unit_group(L).fundamental_units
    for units in ([u1, u2], [-u1, u2], [u1**3, u2]):
        assert certified_log_rank(L, units)
    for units in ([u1, -u1], [u1, u1**3]):
        assert not certified_log_rank(L, units)
    with pytest.raises(ValueError):
        certified_log_rank(quadratic_field(-5), [])


def test_certified_log_rank_matches_certify_independence():
    # certified_log_rank reads degree-1 primes only, found as roots of f
    # mod q, where numberfield.certify_independence factors every prime
    # and also reads those of higher residue degree.  The verdicts agree
    # on the units of the cubic corpus and of x^4 - 5x^2 + 5, and on the
    # systems of test_certified_log_rank_cubic; the refusals factor no
    # prime.
    from tclab.classunit import unit_group
    from tclab.numberfield import certify_independence
    systems = []
    for f in CUBIC_CORPUS + [(5, 0, -5, 0, 1)]:
        K = NumberField(f)
        systems.append((K, unit_group(K).fundamental_units))
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    u1, u2 = unit_group(L).fundamental_units
    systems += [(L, units) for units in ([u1, u2], [-u1, u2], [u1**3, u2], [u1, -u1], [u1, u1**3])]
    verdicts = [certified_log_rank(K, units) for K, units in systems]
    assert not L._prime_cache
    assert verdicts == [any(certify_independence(K, units, (), ell)[0] for ell in (3, 5, 7))
                        for K, units in systems]
    assert verdicts[-2:] == [False, False] and all(verdicts[:-2])


def test_certified_log_rank_without_classunit():
    # A fresh interpreter: the embeddings must not depend on which tclab
    # modules happen to be imported already.
    code = ("from tclab.numberfield import NumberField\n"
            "from tclab.embeddings import certified_log_rank\n"
            "K = NumberField([-1, -1, 1])\n"
            "print(certified_log_rank(K, [K.elt([0, 1])]))\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"

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
from tclab.embeddings import RealEmbeddings, _poly_interval, certified_log_rank, log_abs_interval
from tclab.numberfield import NumberField

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
        assert polys.count_real_roots(f) == sympy_poly(f).count_roots(), f


def test_is_irreducible_matches_sympy():
    for f in SAMPLE:
        assert polys.is_irreducible(f) == sympy_poly(f).is_irreducible, f


def _sturm_count(seq, lo, hi):
    def variations(x):
        signs = [v for v in (polys.poly_eval(p, x) for p in seq) if v]
        return sum(a * b < 0 for a, b in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def test_real_root_intervals_isolate():
    for f in SAMPLE:
        if not polys.is_irreducible(f):
            continue
        seq = polys.sturm_sequence(f)
        ivs = polys.real_root_intervals(f)
        assert len(ivs) == polys.count_real_roots(f), f
        for lo, hi in ivs:
            assert polys.poly_eval(f, lo) * polys.poly_eval(f, hi) < 0, f
            assert _sturm_count(seq, lo, hi) == 1, f
        assert all(a[1] <= b[0] for a, b in zip(ivs, ivs[1:])), f


@pytest.mark.parametrize("f,expected", [
    ((1, 0, 0, 0, 1), True),           # x^4 + 1
    ((1, 0, -10, 0, 1), True),         # x^4 - 10x^2 + 1
    ((4, 0, 0, 0, 1), False),          # x^4 + 4
    ((1, 0, 0, 0, 0, 0, 1), False),    # x^6 + 1
])
def test_is_irreducible_fallback(monkeypatch, f, expected):
    assert polys.is_irreducible(f) == expected
    # Every pattern mod q leaves a factor degree open, so the answer must
    # come from sympy.
    monkeypatch.setitem(sys.modules, "sympy", None)
    with pytest.raises(ImportError):
        polys.is_irreducible(f)


@pytest.mark.parametrize("f", [
    (1, -2, 1),                 # (x - 1)^2
    (1, -1, -1, 1),             # (x - 1)^2 (x + 1)
    (1, 0, 2, 0, 1),            # (x^2 + 1)^2
    (1, 0, 3, 0, 3, 0, 1),      # (x^2 + 1)^3
])
def test_is_irreducible_repeated_factor(f):
    assert polys.discriminant(f) == 0
    assert not polys.is_irreducible(f)


@pytest.mark.parametrize("f,expected", [
    ((-(10**40), 0, 1), False),                   # x^2 - 10^40
    ((-(10**40) - 1, 0, 1), True),
    ((-(10**20), 1, -(10**20), 1), False),        # (x - 10^20)(x^2 + 1)
    ((-(10**20) - 1, 1, -(10**20), 1), True),
])
def test_is_irreducible_large_constant(f, expected):
    # The integer-root test must not enumerate divisors of a_0.
    assert polys.is_irreducible(f) == expected


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
                          for iv in polys.real_root_intervals(self.f)]

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
    from tclab.classunit import unit_group
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    ub = unit_group(L)
    assert certified_log_rank(L, ub.fundamental_units, 2)


def test_log_abs_interval_rounds_outward():
    # |x| = 1 + 2^-60 rounds to 1.0 in double precision, but log|x| > 0
    # must stay inside the enclosure.
    a = Fraction(2**60 + 1, 2**60)
    for iv in ((a, a), (-a, -a)):
        enc = log_abs_interval(iv)
        assert enc.a <= 0 < enc.b


def test_certified_log_rank_without_classunit():
    # A fresh interpreter: the embeddings must not depend on which tclab
    # modules happen to be imported already.
    code = ("from tclab.numberfield import NumberField\n"
            "from tclab.embeddings import certified_log_rank\n"
            "K = NumberField([-1, -1, 1])\n"
            "print(certified_log_rank(K, [K.elt([0, 1])], 1))\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"

"""Brute-force oracles for the tame character of a prime P.

P.character(x, m) reads r = x mod P through one fixed generator z of
mu_m in the residue field.  Every check here rebuilds its answer without
ResidueField.pow, dlog or subgroup_generator: powers are repeated
products, m-th powers are enumerated, the p-part of a residue is read
to the base of the residue of character 1, and the order of Frobenius in a
Kummer layer is read from its exponent formula.  The residue field's own
arithmetic is checked against the polynomial reference gfp_mod, gfp_mul
and gfp_powmod on random moduli.
"""

import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYP = True
except ImportError:  # pragma: no cover
    HAVE_HYP = False

from tclab import polys, rayclass as rc
from tclab.numberfield import FieldError, NumberField, Q

from conftest import quadratic_field

SQRT5 = quadratic_field(5)
ZETA7PLUS = NumberField((-1, -2, 1, 1), label="zeta7plus")

# Residue degree 1 (Q at 7 and 13, both primes of Q(sqrt 5) above 11),
# 2 (Q(sqrt 5) at 2, 7 and 17) and 3 (zeta7plus at 2, 3 and 5).  At 17,
# N - 1 = 288 = 2^5 3^2, so the orders 32, 3 and 9 do not divide q - 1.
PRIMES = ([(Q, 7, 1), (Q, 13, 1), (SQRT5, 11, 1), (SQRT5, 11, 2), (SQRT5, 2, 1), (SQRT5, 7, 1),
           (SQRT5, 17, 1)] + [(ZETA7PLUS, q, 1) for q in (2, 3, 5)])
IDS = [f"{K.label}-{q}_{i}" for K, q, i in PRIMES]


def _power(F, a, e):
    out = F.one
    for _ in range(e):
        out = F.mul(out, a)
    return out


def _order(F, z):
    k, acc = 1, z
    while acc != F.one:
        k, acc = k + 1, F.mul(acc, z)
    return k


def _prime_powers(n):
    return [r**a for r in polys.prime_factors(n) for a in range(1, n.bit_length()) if n % r**a == 0]


def _units(P, count=12):
    """Seeded elements of P's field with nonzero residue at P."""
    K, rng, out = P.field, random.Random(P.label), []
    while len(out) < count:
        x = K.elt([rng.randint(-30, 30) for _ in range(K.degree)])
        if P.residue(x):
            out.append(x)
    return out


def _in_P(P):
    return [P.field.elt(P.q), P.second_generator()]


@pytest.fixture(params=PRIMES, ids=IDS)
def P(request):
    K, q, i = request.param
    P = K.prime(q, i)
    assert P.residue_field.deg == P.f_deg
    return P


def test_subgroup_generator_oracle(P):
    F, N = P.residue_field, P.norm
    for m in _prime_powers(N - 1):
        (r,) = polys.prime_factors(m)
        rth_powers = {_power(F, e, r) for e in F.elements() if e}
        first = next(a for a in map(F.elt, polys._candidates(F.deg, F.q))
                     if a and a not in rth_powers)
        z = F.subgroup_generator(m)
        assert z == _power(F, first, (N - 1) // m)
        assert _order(F, z) == m


def test_character_oracle(P):
    F, N = P.residue_field, P.norm
    xs = _units(P)
    for m in _prime_powers(N - 1):
        z = F.subgroup_generator(m)
        logs = {_power(F, z, k): k for k in range(m)}
        for x in xs:
            assert P.character(x, m) == logs[_power(F, P.residue(x), (N - 1) // m)]
        for x, y in zip(xs, xs[1:]):
            assert P.character(x * y, m) == (P.character(x, m) + P.character(y, m)) % m
        for x in _in_P(P):
            with pytest.raises(FieldError, match="not coprime"):
                P.character(x, m)


def test_dlog_refuses_an_element_outside_the_subgroup(P):
    # A fresh residue field has no table of powers before its first dlog.
    for F in (P.residue_field, polys.ResidueField(P.q, P.gpoly)):
        for m in _prime_powers(P.norm - 1):
            outside = [a for a in F.elements() if _power(F, a, m) != F.one]
            assert len(outside) == P.norm - m
            for a in outside[:5]:
                with pytest.raises(ValueError):
                    F.dlog(a, m)


def test_a_second_character_builds_no_new_powers(P, monkeypatch):
    F, N = P.residue_field, P.norm
    x = _units(P)[0]
    calls = []
    mul = F.mul
    monkeypatch.setattr(F, "mul", lambda a, b: calls.append(1) or mul(a, b))
    for m in _prime_powers(N - 1):
        P.character(x, m)
        powers = F._subgroup_gens[m]
        assert len(powers) == m and powers[1] == F.subgroup_generator(m)
        calls.clear()
        F.pow(P.residue(x), (N - 1) // m)
        pow_calls = len(calls)
        calls.clear()
        P.character(x, m)
        assert len(calls) == pow_calls
        assert F._subgroup_gens[m] is powers


def test_character_reads_the_p_part_to_the_base_of_character_one(P):
    # With m = (N - 1)/p^a and mu = m^-1 mod p^a, the p-part of r = x mod P
    # is r^(m mu), and the character of order p^a is its exponent to the
    # base z^mu, the residue of character 1 that kernel_module lifts.
    F, N = P.residue_field, P.norm
    for p in polys.prime_factors(N - 1):
        pa = rc.p_part_order(P, p)
        m = (N - 1) // pa
        mu = pow(m, -1, pa)
        base = _power(F, F.subgroup_generator(pa), mu)
        logs = {_power(F, base, k): k for k in range(pa)}
        for x in _units(P):
            assert P.character(x, pa) == logs[_power(F, P.residue(x), m * mu % (N - 1))]
        assert P.character(P.lift(base), pa) == 1 % pa


def test_frobenius_order_matches_the_exponent_formula(P):
    # Frobenius at P has order 1 or p in F(zeta_p, x^(1/p)) / F(zeta_p):
    # 1 exactly when x^e = 1 mod P, with N^k the norm of the primes of
    # F(zeta_p) above P.  That is every unit when p does not divide N - 1,
    # and otherwise exactly those with a character of order p of 0.
    F, N = P.residue_field, P.norm
    for p in (2, 3, 5, 7, 11, 13):
        if p == P.q:
            continue
        k = next(k for k in range(1, p) if pow(N, k, p) == 1)
        e = (N**k - 1) // p % (N - 1)
        for x in _units(P):
            order = 1 if _power(F, P.residue(x), e) == F.one else p
            if (N - 1) % p:
                assert order == 1
            else:
                assert order == (1 if P.character(x, p) == 0 else p)


def test_norm_is_the_product_of_the_conjugates(P):
    F, q = P.residue_field, P.q
    assert F.norm_exp == (P.norm - 1) // (q - 1)
    for a in F.elements():
        conj, prod = a, a
        for _ in range(F.deg - 1):
            conj = _power(F, conj, q)
            prod = F.mul(prod, conj)
        n = F.norm(a)
        assert prod == ((n,) if n else ())


def _powers(F, a, top):
    """[a^0, a^1, ..., a^top], by repeated products."""
    out = [F.one]
    for _ in range(top):
        out.append(F.mul(out[-1], a))
    return out


def test_pow_at_multiples_of_the_norm_exponent(P):
    F, k = P.residue_field, P.residue_field.norm_exp
    js = (0, 1, 2, 3, P.q - 1, P.q)
    for a in F.elements():
        powers = _powers(F, a, max(js) * k)
        for j in js:
            assert F.pow(a, j * k) == powers[j * k]


def test_pow_off_the_norm_exponent(P):
    # m does not divide q - 1 exactly when (N - 1)/m is no multiple of the
    # norm exponent, so no such power may be read in F_q; SQRT5 at 7 has
    # m = 16, 8, 24 and 48.
    F, N, q = P.residue_field, P.norm, P.q
    es = [(N - 1) // m for m in range(2, N) if (N - 1) % m == 0 and (q - 1) % m]
    es += [e for e in range(1, F.norm_exp + 2) if e % F.norm_exp]
    assert bool(es) == (F.deg > 1)
    for a in F.elements():
        powers = _powers(F, a, max(es, default=0))
        for e in es:
            assert F.pow(a, e) == powers[e] == polys.gfp_powmod(a, e, F.modulus, q)


def _irreducible(q, f, start):
    """The first monic irreducible polynomial of degree f over F_q at or
    after the start-th monic one, in the order of their low coefficients
    read as base-q digits (cyclically)."""
    for i in range(q**f):
        k = (start + i) % q**f
        g = tuple(k // q**j % q for j in range(f)) + (1,)
        if polys.gfp_factor(g, q) == [(g, 1)]:
            return g
    raise AssertionError("no irreducible polynomial")  # pragma: no cover


if HAVE_HYP:
    _coeffs = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=11)

    @given(st.sampled_from((2, 3, 5, 7, 13, 101)), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0), _coeffs, _coeffs, _coeffs, st.integers(min_value=0, max_value=10**4))
    @settings(max_examples=300, deadline=None)
    def test_residue_field_arithmetic_matches_gfp_reference_hyp(q, f, start, c, a, b, e):
        g = _irreducible(q, f, start)
        F = polys.ResidueField(q, g)
        # elt takes up to max(6, 2f - 1) coefficients: longer than 2f - 1
        # at f <= 3, so that f = 1 folds up to t^5.
        reach = max(6, 2 * f - 1)
        assert F.elt(c[:reach]) == polys.gfp_mod(c[:reach], g, q)
        a, b = F.elt(a[:reach]), F.elt(b[:reach])
        assert F.mul(a, b) == polys.gfp_mod(polys.gfp_mul(a, b, q), g, q)
        # Both branches of pow: the norm when norm_exp | e, else products.
        for exp in (e, e * F.norm_exp, e * F.norm_exp + 1):
            assert F.pow(a, exp) == polys.gfp_powmod(a, exp, g, q)

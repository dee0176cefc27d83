import random
from fractions import Fraction

import pytest

from tclab import classunit as cu, rayclass as rc, selmer as sm
from tclab.numberfield import NumberField, Q, is_prime

from conftest import SQUAREFREE, quadratic_field


def test_selmer_at_an_index_divisor_matches_the_monogenic_model():
    # x^2 - 5 with the basis 1, (1 + theta)/2 has index 2, so its prime
    # above 2 comes from the monogenic generator of _factor_generator and
    # its integer map; x^2 - x - 1 is the same field on Z[theta].
    K = NumberField((-5, 0, 1), integral_basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert K.index == 2 and K.prime(2).gen == K._factor_generator[0] != K.theta
    runs = {}
    for L in (K, NumberField((-1, -1, 1))):
        for S in ([], [L.prime(2)], [L.prime(7)]):
            sb = sm.selmer_basis(L, S, 3)
            assert sb.certified and sb.verify()
            runs.setdefault(L, []).append((sb.dim, [P.label for P in sb.aux_primes]))
    assert list(runs.values()) == [[(1, ["17_1"]), (0, ["17_1"]), (1, ["17_1"])]] * 2


def tame_primes(K, p, rng, count, blocked, norm_cap=400):
    """Pick distinct tame unramified primes away from the blocked set."""
    out = []
    q = 2
    pool = []
    while q < norm_cap:
        if q != p:
            for P in K.factor_prime(q):
                if P.e == 1 and (P.q, P.index) not in blocked:
                    pool.append(P)
        q = next_prime(q)
    rng.shuffle(pool)
    return pool[:count]


def next_prime(q):
    from tclab.numberfield import is_prime
    q += 1
    while not is_prime(q):
        q += 1
    return q


def test_power_residue_class_is_multiplicative():
    K = quadratic_field(5)
    P = K.factor_prime(31)[0]
    rng = random.Random(3)
    for _ in range(20):
        a = K.elt([rng.randint(1, 9), rng.randint(0, 9)])
        b = K.elt([rng.randint(1, 9), rng.randint(0, 9)])
        if P.valuation(a) or P.valuation(b):
            continue
        ca = sm.power_residue_class(a, P, 3)
        cb = sm.power_residue_class(b, P, 3)
        assert sm.power_residue_class(a * b, P, 3) == (ca + cb) % 3


def test_v_empty_dimension_formula():
    # dim V_0 = r1 + r2 - 1 + delta_p + p-rank of the class group
    for n in (5, -1, -23, 13, -3, 10):
        K = quadratic_field(n)
        for p in (3, 5):
            sb = sm.selmer_basis(K, [], p)
            ub = cu.unit_group(K)
            r1, r2 = K.signature
            expect = r1 + r2 - 1 + ub.delta_p(p) + cu.class_group(K).p_rank(p)
            assert sb.dim == expect


def test_selmer_verify_and_certify():
    K = quadratic_field(5)
    P107 = K.factor_prime(107)[0]
    sb = sm.selmer_basis(K, [K.factor_prime(5)[0], P107], 3)
    assert sb.certified
    assert sb.verify()
    for g in sb.generators:
        for P in sb.S:
            if (P.norm - 1) % 3 == 0:
                assert sm.power_residue_class(g, P, 3) == 0


def test_anti_monotone_chains():
    rng = random.Random(99)
    checked = 0
    fields = [quadratic_field(n) for n in (5, 13, -7, -23, 10, 17, -11, 2, 3, -1)]
    while checked < 50:
        K = fields[checked % len(fields)]
        p = rng.choice([3, 5])
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        chain = tame_primes(K, p, rng, 3, blocked)
        dims = []
        for k in range(len(chain) + 1):
            dims.append(sm.selmer_basis(K, chain[:k], p).dim)
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        checked += 1


def test_crosscheck_on_examples():
    L = quadratic_field(5)
    S = [L.factor_prime(5)[0]]
    T = S + [L.factor_prime(107)[0]]
    V = T + [L.factor_prime(197)[0]]
    dims = []
    for X in (S, T, V):
        rep = sm.crosscheck_rusb(L, X, 3)
        assert rep["agree"]
        dims.append(rep["selmer_dim"])
    assert dims == [1, 1, 0]


def test_crosscheck_random_corpus():
    rng = random.Random(2468)
    done = 0
    idx = 0
    candidates = [n for n in SQUAREFREE if abs(quadratic_field(n).disc) <= 200]
    while done < 8:
        n = candidates[idx % len(candidates)]
        idx += 1
        K = quadratic_field(n)
        p = rng.choice([3, 5])
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        S = tame_primes(K, p, rng, rng.randint(0, 3), blocked)
        rep = sm.crosscheck_rusb(K, S, p)
        assert rep["agree"]
        done += 1


def test_rusb_dim_via_h1_rationals():
    # dim RusB over Q with empty S: r - 1 + delta_p = delta_p
    assert sm.h1_context(rc.ray_class_p_part(Q, [], 2))["h1_route_dim"] == 1
    assert sm.h1_context(rc.ray_class_p_part(Q, [], 3))["h1_route_dim"] == 0


def _qadic_class(x, d, q, p, root):
    """(v, k) for x in Q(sqrt d) sent to Q_q by sqrt d -> the Hensel lift of
    root: v the q-adic valuation, and k with u^((q-1)/p) = z^k mod q for
    the unit part u and z = g^((q-1)/p), g the least primitive root."""
    N = 40
    mod = q**N
    r = root
    for _ in range(N.bit_length() + 1):  # Newton: r <- r - (r^2 - d) / 2r
        r = (r - (r * r - d) * pow(2 * r, -1, mod)) % mod
    assert (r * r - d) % mod == 0
    a, b = x.power_coords()
    num = (a.numerator * b.denominator + b.numerator * a.denominator * r) % mod
    den = a.denominator * b.denominator
    assert num
    v = 0
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    u = num * pow(den, -1, q) % q
    g = next(g for g in range(2, q) if all(pow(g, (q - 1) // f, q) != 1
                                           for f in range(2, q) if (q - 1) % f == 0 and is_prime(f)))
    z, w = pow(g, (q - 1) // p, q), pow(u, (q - 1) // p, q)
    return v, next(k for k in range(p) if pow(z, k, q) == w)


@pytest.mark.parametrize("d,p,q", [(79, 3, 7), (10, 2, 3)])
def test_local_conditions_where_a_generator_is_not_a_unit(d, p, q):
    # A V_emptyset generator of Q(sqrt 79) has valuation -3 at 7_1 and is
    # a unit at 7_2 with 7 in its denominator; Q(sqrt 10) has the same at
    # 3.  Each class is read against the q-adic oracle: per prime, the
    # classes are one fixed nonzero multiple of the oracle's.
    K = NumberField((-d, 0, 1))
    primes = K.factor_prime(q)
    assert [P.f_deg for P in primes] == [1, 1]
    sbs = [sm.selmer_basis(K, [P], p) for P in primes]
    assert sbs[0].dim == sbs[1].dim and all(sb.certified and sb.verify() for sb in sbs)
    elements = sbs[0].v0_generators + [g for sb in sbs for g in sb.generators]
    irregular = 0
    for P in primes:
        root = -P.gpoly[0] % q  # P = (q, theta - root)
        oracle = [_qadic_class(x, d, q, p, root) for x in elements]
        assert all(v % p == 0 for v, _ in oracle)
        irregular += sum(v != 0 or x.den % q == 0 for x, (v, _) in zip(elements, oracle))
        got = [sm.power_residue_class(x, P, p) for x in elements]
        assert any(all(g * c % p == k for g, (_, k) in zip(got, oracle)) for c in range(1, p))
    for sb, P in zip(sbs, primes):
        assert all(sm.power_residue_class(g, P, p) == 0 for g in sb.generators)
    assert irregular >= 2


def test_exceptional_rationals():
    rep = sm.is_exceptional(Q, [])
    assert not rep.condition_b
    assert not rep.exceptional


def test_exceptional_gaussian():
    rep = sm.is_exceptional(quadratic_field(-1), [])
    assert not rep.condition_a
    assert not rep.exceptional


def test_exceptional_sqrt2_witness():
    K = quadratic_field(2)
    rep = sm.is_exceptional(K, [])
    assert rep.condition_b
    a = rep.witness_b
    minus_four_a4 = a * a * a * a * (-4)
    u = cu.unit_group(K)
    # -4 a^4 must be a unit
    assert abs(minus_four_a4.norm()) == 1


def test_exceptional_condition_c():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    T = [L.factor_prime(7)[0], L.factor_prime(181)[0], L.factor_prime(293)[0]]
    rep = sm.is_exceptional(L, T)
    # 7 = 3 mod 4 blocks condition (c); 181 and 293 are 1 mod 4
    assert rep.per_prime_c == [("7_1", False), ("181_1", True), ("293_1", True)]
    assert not rep.condition_c
    assert not rep.exceptional

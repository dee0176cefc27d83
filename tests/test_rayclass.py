import pytest

from tclab import classunit as cu, rayclass as rc, selmer as sm
from tclab.numberfield import FieldError, NumberField, Q

from conftest import quadratic_field


def primes_by_first_label(field, qs):
    return [field.factor_prime(q)[0] for q in qs]


def test_p_part_order():
    K = quadratic_field(5)
    P = K.factor_prime(11)[0]  # Nq = 11, 11 - 1 = 2 * 5
    assert rc.p_part_order(P, 2) == 2
    assert rc.p_part_order(P, 5) == 5
    assert rc.p_part_order(P, 3) == 1


def test_rationals_ray_class():
    # (Z/qZ)^x modulo +-1, p-part: q = 13 gives 3-part Z/3
    P13 = Q.factor_prime(13)[0]
    rcd = rc.ray_class_p_part(Q, [P13], 3)
    assert rcd.p_group.invariant_factors == (3,)
    # q = 7: (Z/7)^x / <-1> has order 3
    P7 = Q.factor_prime(7)[0]
    rcd7 = rc.ray_class_p_part(Q, [P7], 3)
    assert rcd7.p_group.invariant_factors == (3,)
    # 2-part of (Z/7)^x / <-1> is trivial
    assert rc.ray_class_p_part(Q, [P7], 2).p_group.is_trivial


def test_ray_class_units_saturated_at_p_in_either_call_order():
    # The unit rows of a ray class p-part are saturated at p itself, whether
    # or not a Selmer call at the same p filled the unit cache first.  2 is
    # inert in zeta7plus, and N(2) - 1 = 7.
    results = []
    for selmer_first in (False, True):
        K = NumberField((-1, -2, 1, 1), label="zeta7plus")
        if selmer_first:
            sm.v_empty_generators(K, 7)
        rcd = rc.ray_class_p_part(K, K.factor_prime(2), 7)
        assert 7 in K._unit_cache.saturated_at
        assert cu.unit_group(K, 7) is K._unit_cache
        results.append((rcd.relation_rows, rcd.group.invariant_factors))
    assert results[0] == results[1]
    assert results[0][1] == ()


def test_wild_prime_refused():
    with pytest.raises(FieldError):
        rc.ray_class_p_part(Q, Q.factor_prime(3), 3)


def test_repeated_modulus_prime_refused():
    # A tame modulus is squarefree: 11 * 11 is refused, not read as 11.
    K = quadratic_field(5)
    P = K.factor_prime(11)[0]
    assert rc.ray_class_p_part(K, [P], 5).p_group.is_trivial
    with pytest.raises(FieldError, match="repeats"):
        rc.ray_class_p_part(K, [P, P], 5)


def test_trivial_modulus_gives_class_group():
    K = quadratic_field(-23)
    rcd = rc.ray_class_p_part(K, [], 3)
    assert rcd.p_group.invariant_factors == (3,)
    assert rc.ray_class_p_part(K, [], 2).p_group.is_trivial


def test_sqrt5_conductor_ladder():
    L = quadratic_field(5)
    # these ray class 3-parts are frozen golden values
    P5 = L.factor_prime(5)[0]
    P107 = L.factor_prime(107)[0]
    P197 = L.factor_prime(197)[0]
    assert rc.ray_class_p_part(L, [P5], 3).p_group.is_trivial
    assert rc.ray_class_p_part(L, [P5, P107], 3).p_group.invariant_factors == (3,)
    assert rc.ray_class_p_part(L, [P5, P107, P197], 3).p_group.invariant_factors == (27,)


def test_inert_conditions_are_noops():
    # a modulus prime with Nq != 1 mod p contributes nothing to the p-part
    cases = 0
    for n in (5, -1, -23, 13, 10):
        K = quadratic_field(n)
        base = rc.ray_class_p_part(K, [], 3)
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        for q in (2, 5, 7, 11, 17, 23, 29, 41):
            for P in K.factor_prime(q):
                if P.e > 1 or P.norm % 3 == 1 or q == 3:
                    continue
                if (P.q, P.index) in blocked:
                    continue
                got = rc.ray_class_p_part(K, [P], 3)
                assert got.p_group.invariant_factors == base.p_group.invariant_factors
                cases += 1
    assert cases >= 20


def test_surjection_kernel_golden():
    L = quadratic_field(5)
    P5 = L.factor_prime(5)[0]
    P107 = L.factor_prime(107)[0]
    P197 = L.factor_prime(197)[0]
    small = rc.ray_class_p_part(L, [P5, P107], 3)
    big = rc.ray_class_p_part(L, [P5, P107, P197], 3)
    ker = rc.rcg_surjection_kernel(big, small)
    assert ker.invariant_factors == (9,)
    # dropping one more conductor prime shrinks the kernel accordingly
    tiny = rc.ray_class_p_part(L, [P5], 3)
    assert rc.rcg_surjection_kernel(small, tiny).invariant_factors == (3,)


def test_cubic_golden_row():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    P7 = L.factor_prime(7)[0]
    T = [P7] + primes_by_first_label(L, [181, 293])
    V = T + primes_by_first_label(L, [307, 349])
    assert rc.ray_class_p_part(L, [P7], 2).p_group.is_trivial
    assert rc.ray_class_p_part(L, T, 2).p_group.invariant_factors == (2, 2)
    assert rc.ray_class_p_part(L, V, 2).p_group.invariant_factors == (4, 4)


def test_principal_class_is_trivial_on_congruent_elements():
    L = quadratic_field(5)
    P107 = L.factor_prime(107)[0]
    rcd = rc.ray_class_p_part(L, [L.factor_prime(5)[0], P107], 3)
    # an element that is 1 mod every modulus prime maps to the identity:
    # the class of (x) is read by the characters of x at the modulus
    # primes, and Q(sqrt 5) has class number 1
    x = L.one + L.elt([5 * 107, 0])
    vec = [P.character(x, pa) for P, pa in rcd.res_gens]
    assert all(v % o == 0 for v, o in zip(rcd.pres.coords(vec), rcd.pres.orders))

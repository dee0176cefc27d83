import random
from fractions import Fraction

import pytest

from tclab import cli, equivariant as eq, numberfield as nf, pipeline as pl, rayclass as rc
from tclab import selmer as sm
from tclab.numberfield import FieldError, NumberField, Q, is_prime

from conftest import quadratic_field


@pytest.fixture(scope="module")
def L5():
    return quadratic_field(5)


@pytest.fixture(scope="module")
def layer7():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    return eq.make_layer(Q, L, [Fraction(0)] * 3, [L.elt([-2, 0, 1])])


def first(field, q):
    return field.factor_prime(q)[0]


def test_untwisted_sandwich_golden(L5):
    T = [first(L5, 5), first(L5, 107)]
    V = T + [first(L5, 197)]
    sw = pl.sha_sandwich(L5, 3, T, V)
    assert (sw.lower, sw.upper, sw.certified) == (1, 1, True)
    assert sw.pinned_dim == 1


def test_sandwich_upper_zero_certifies(L5):
    T = [first(L5, 5), first(L5, 107)]
    V = T + [first(L5, 197)]
    sw = pl.sha_sandwich(L5, 3, V, V)
    assert sw.upper == 0 and sw.certified and sw.pinned_dim == 0


def test_cubic_sandwich_golden(layer7):
    L = layer7.L_field
    T = [first(L, 7), first(L, 181), first(L, 293)]
    V = T + [first(L, 307), first(L, 349)]
    sw = pl.sha_sandwich(L, 2, T, V)
    assert (sw.lower, sw.upper, sw.certified) == (2, 2, True)


def test_twisted_sandwich_transfer(layer7):
    L = layer7.L_field
    A = eq.gamma_module(2, [[[0, 1], [1, 1]]])
    T = [first(L, 7), first(L, 181), first(L, 293)]
    V = T + [first(L, 307), first(L, 349)]
    Tt = layer7.orbit_closure(T)
    Vt = layer7.orbit_closure(V)
    sw = pl.sha_sandwich(L, 2, Tt, Vt, layer=layer7, A=A, T_rep=T, V_rep=V)
    assert sw.certified and sw.pinned_dim == 2


def test_orbit_closure_goldens(layer7):
    L = layer7.L_field
    T = [first(L, 7), first(L, 181), first(L, 293)]
    rep = pl.orbit_closure_check(layer7, layer7.orbit_closure([first(L, 7)]), T[1:], 2)
    assert rep["agree"]


def test_orbit_closure_random_draws(layer7):
    # the closure identity is only promised when X' consists of primes
    # that preserve the Selmer group of the Gamma-stable base set: only
    # then is the governing field Galois over the base field
    rng = random.Random(31415)
    L = layer7.L_field
    stable_sets = [[], layer7.orbit_closure([first(L, 7)])]
    pools = [pl.find_preserving_primes(L, S, 2, 8).X for S in stable_sets]
    done = 0
    while done < 20:
        k = rng.randrange(2)
        S = stable_sets[k]
        X = rng.sample(pools[k], rng.randint(1, 3))
        rep = pl.orbit_closure_check(layer7, S, X, 2)
        assert rep["agree"]
        done += 1


def naive_pth_power_test(x, P, p):
    """Brute force oracle: enumerate p-th powers in the residue field."""
    F = P.residue_field
    target = P.residue(x)
    seen = set()
    for e in F.elements():
        if F.is_zero(e):
            continue
        seen.add(F.pow(e, p))
    return target in seen


def test_find_preserving_primes_golden(L5):
    ps = pl.find_preserving_primes(L5, [], 3, 3)
    assert ps.verified and ps.shortfall == 0
    assert [P.label for P in ps.X] == ["7_1", "13_1", "37_1"]
    sb = sm.selmer_basis(L5, [], 3)
    for P in ps.X:
        if (P.norm - 1) % 3 == 0:
            for g in sb.generators:
                assert naive_pth_power_test(g, P, 3)
        after = sm.selmer_basis(L5, [P], 3)
        assert after.dim == sb.dim


def _reference_preserving(field, S, p, count, norm_bound):
    """(X, witnesses) by the walk over q = 2, 3, 5, ... with a primality
    test at each step, filtering on the norm bound before any character."""
    sb = sm.selmer_basis(field, S, p)
    skip = {P.label for P in S}
    found, witnesses = [], {}
    q = 1
    while len(found) < count and q < norm_bound:
        q += 1
        while not is_prime(q):
            q += 1
        if q == p:
            continue
        for P in field.factor_prime(q):
            if P.label in skip or (P.norm - 1) % p != 0 or P.norm > norm_bound:
                continue
            try:
                classes = [sm.power_residue_class(g, P, p) for g in sb.v0_generators]
            except FieldError:
                continue
            if any(classes):
                continue
            found.append(P)
            witnesses[P.label] = classes
            if len(found) == count:
                break
    return [P.label for P in found], witnesses


@pytest.mark.parametrize("case", ["sqrt5-3", "zeta7plus-2", "zeta7plus-3"])
def test_find_preserving_primes_matches_the_prime_walk(monkeypatch, L5, layer7, case):
    # The shared tame-prime scan against that walk, for counts 1-3, norm
    # bounds 97 (a prime), 500 and 2000, and S empty or not.  No character
    # is read inside the scan at a prime of norm above the bound (the
    # certificate scans of selmer_basis have no norm bound).
    field, p = {"sqrt5-3": (L5, 3), "zeta7plus-2": (layer7.L_field, 2),
                "zeta7plus-3": (layer7.L_field, 3)}[case]
    real_scan, real_character = pl.tame_characters, nf.PrimeIdeal.character
    scanning = [None]  # the norm bound of the scan being read, if any

    def scan(*args):
        inner = real_scan(*args)
        while True:
            scanning[0] = args[-1]
            item = next(inner, None)
            scanning[0] = None
            if item is None:
                return
            yield item

    def character(P, x, m):
        assert scanning[0] is None or P.norm <= scanning[0], (P.label, scanning[0])
        return real_character(P, x, m)

    monkeypatch.setattr(pl, "tame_characters", scan)
    monkeypatch.setattr(nf.PrimeIdeal, "character", character)
    found = 0
    for S in ([], [first(field, 11)], [first(field, 29), first(field, 41)]):
        for count in (1, 2, 3):
            for bound in (97, 500, 2000):
                ps = pl.find_preserving_primes(field, S, p, count, bound)
                X, witnesses = _reference_preserving(field, S, p, count, bound)
                assert ([P.label for P in ps.X], ps.witnesses) == (X, witnesses)
                assert ps.shortfall == count - len(X)
                found += len(X)
    assert found > 0


def test_frobenius_order_refuses_a_pole():
    # v_7(1/7) = -1, so Frobenius at 7 is undefined in Q(zeta_3, 7^(1/3)),
    # and the cubic character at 7, which reads it, refuses 1/7.
    x = Q.elt(Fraction(1, 7))
    with pytest.raises(FieldError, match="not integral at 7"):
        Q.prime(7).character(x, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_order_euler_criterion(p):
    # For q = 1 mod p, Frobenius at q splits in Q(zeta_p, x^(1/p)) exactly
    # when x is a p-th power mod q: x^((q-1)/p) = 1 mod q.  The character
    # of order p at q is 0 exactly then.
    rng = random.Random(p)
    for q in (q for q in range(3, 300) if q % p == 1 and is_prime(q)):
        P = Q.prime(q)
        for _ in range(6):
            num = rng.choice((1, -1)) * rng.randint(1, 10**8)
            den = rng.choice((1, rng.randint(2, 10**4)))
            if num % q == 0 or den % q == 0:
                continue
            split = pow(num * pow(den, -1, q), (q - 1) // p, q) == 1
            assert (P.character(Q.elt(Fraction(num, den)), p) == 0) == split


def test_sha_lower_bound_report(L5):
    # The kernel of RCG_V ->> RCG_T gives the lower bound 1, under the
    # precondition that the two ray class groups have equal p-rank.
    T = [first(L5, 5), first(L5, 107)]
    V = T + [first(L5, 197)]
    rcg_T, rcg_V = (rc.ray_class_p_part(L5, X, 3) for X in (T, V))
    assert rcg_T.p_group.p_rank(3) == rcg_V.p_group.p_rank(3)
    sw = pl.sha_sandwich(L5, 3, T, V)
    assert sw.lower == 1 and sw.certified and sw.mode == "untwisted"


def _reference_sandwich(field, p, T, V, layer=None, A=None, T_rep=None, V_rep=None):
    """(lower, upper, certified, mode) by the route that builds the ray
    class groups for the lower bound and calls crosscheck_rusb for the
    untwisted upper bound."""
    if not {P.label for P in T} <= {P.label for P in V}:
        raise FieldError("T must be contained in V")
    rcg_T = rc.ray_class_p_part(field, T, p)
    rcg_V = rc.ray_class_p_part(field, V, p)
    lower = rc.rcg_surjection_kernel(rcg_V, rcg_T).p_rank(p)
    precondition = rcg_T.p_group.p_rank(p) == rcg_V.p_group.p_rank(p)
    if layer is None:
        rep = sm.crosscheck_rusb(field, T, p)
        upper = rep["selmer_dim"]
        if upper == 0:
            return 0, 0, rep["certified"], "untwisted"
        return lower, upper, precondition and lower == upper and rep["certified"], "untwisted"
    sb = sm.selmer_basis(field, T, p)
    upper = eq.invariants_dim(eq.tensor(eq.dual(eq.selmer_module(layer, sb)), A))
    if upper == 0:
        return 0, 0, sb.certified, "twisted"
    if precondition:
        lower = eq.invariants_dim(eq.tensor(eq.kernel_module(layer, rcg_V, rcg_T), A))
        return lower, upper, lower == upper and sb.certified, "twisted-direct"
    if T_rep is None:
        return 0, upper, False, "twisted"
    inner = _reference_sandwich(field, p, T_rep, V_rep)
    ok = inner[2] and inner[1] == sb.dim
    return upper if ok else 0, upper, ok, "twisted-transfer"


def _sandwich(*args, **kw):
    sw = pl.sha_sandwich(*args, **kw)
    return sw.lower, sw.upper, sw.certified, sw.mode


@pytest.mark.parametrize("case", ["sqrt5-3", "zeta7plus-2"])
def test_untwisted_sandwich_matches_the_reference_route(L5, layer7, case):
    # The golden pair and 32 seeded pairs T <= V, each V also as T.
    field, p, golden, qs = {
        "sqrt5-3": (L5, 3, [5, 107, 197], [5, 7, 11, 19, 31, 61, 107, 197]),
        "zeta7plus-2": (layer7.L_field, 2, [7, 181, 293, 307, 349],
                        [7, 13, 29, 43, 181, 293, 307, 349]),
    }[case]
    pool = [P for q in qs for P in field.factor_prime(q)]
    rng = random.Random(34)
    V = [first(field, q) for q in golden]
    pairs = [(V[:-1], V)]
    for _ in range(16):
        V = sorted(rng.sample(pool, rng.randint(1, 5)), key=lambda P: (P.q, P.index))
        pairs += [(V[:rng.randint(1, len(V))], V), (V, V)]
    seen = set()
    for T, V in pairs:
        got = _sandwich(field, p, T, V)
        assert got == _reference_sandwich(field, p, T, V), ([P.label for P in T], [P.label for P in V])
        seen.add((got[1] > 0, got[2]))
    assert len(seen) >= 3  # upper zero and not, certified and not


@pytest.mark.parametrize("ini,reps", [
    ("example1.ini", [([5], [5, 107]), ([5, 107], [5, 107, 197]), ([11], [11, 19, 31]),
                      ([107], [107, 197])]),
    ("example2.ini", [([7], [7, 181]), ([7, 181, 293], [7, 181, 293, 307, 349]),
                      ([13], [13, 29]), ([181], [181, 293])]),
])
def test_twisted_sandwich_matches_the_reference_route(ini, reps):
    ctx = cli._load_layer_config(ini)
    L, layer, A, p = ctx["L"], ctx["layer"], ctx["twist"], ctx["p"]
    modes = set()
    for t_qs, v_qs in reps:
        T_rep, V_rep = ([L.factor_prime(q)[0] for q in qs] for qs in (t_qs, v_qs))
        T, V = layer.orbit_closure(T_rep), layer.orbit_closure(V_rep)
        for kw in ({}, {"T_rep": T_rep, "V_rep": V_rep}):
            got = _sandwich(L, p, T, V, layer=layer, A=A, **kw)
            assert got == _reference_sandwich(L, p, T, V, layer, A, **kw), (t_qs, v_qs, kw)
            modes.add(got[3])
    assert len(modes) >= 2


def test_sandwich_refusals_match_the_reference_route(L5, layer7):
    P3, P5, P107, P197 = (first(L5, q) for q in (3, 5, 107, 197))
    cases = [
        (L5, 3, [P5, P107], [P5, P107, P107]),  # V repeats a prime of T
        (L5, 3, [P5], [P5, P197, P197]),  # V repeats a prime outside T
        (L5, 3, [P5, P5], [P5, P5]),  # T = V with a repeat
        (L5, 3, [P5, P197], [P5, P107]),  # T not in V
        (L5, 3, [P3, P5], [P3, P5, P107]),  # wild prime in T
        (layer7.L_field, 2, [first(layer7.L_field, 2)], [first(layer7.L_field, 2)]),
    ]
    for field, p, T, V in cases:
        with pytest.raises(FieldError) as want:
            _reference_sandwich(field, p, T, V)
        with pytest.raises(FieldError) as got:
            pl.sha_sandwich(field, p, T, V)
        assert str(got.value) == str(want.value), [P.label for P in V]


def test_sandwich_builds_each_ray_class_group_once(monkeypatch, L5, layer7):
    built = []
    real = rc.ray_class_p_part

    def counted(field, modulus, p):
        built.append([P.label for P in modulus])
        return real(field, modulus, p)

    monkeypatch.setattr(pl, "ray_class_p_part", counted)
    monkeypatch.setattr(sm, "ray_class_p_part", counted)
    L7 = layer7.L_field
    for field, p, qs in ((L5, 3, (5, 107, 197)), (L7, 2, (7, 181, 293, 307, 349))):
        V = [first(field, q) for q in qs]
        for T in (V[:2], V[:-1], V, list(reversed(V))):
            built.clear()
            pl.sha_sandwich(field, p, T, V)
            same = sorted(P.label for P in T) == sorted(P.label for P in V)
            assert built == ([[P.label for P in T]] if same else
                             [[P.label for P in T], [P.label for P in V]])
        built.clear()
        sm.crosscheck_rusb(field, V, p)
        assert built == [[P.label for P in V]]

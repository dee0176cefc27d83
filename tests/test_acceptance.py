"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the run can be audited from
the log.  Everything here is exact arithmetic; there are no tolerances.
"""

import random
import time
from fractions import Fraction

import pytest

from tclab import classunit as cu, equivariant as eq, pipeline as pl, \
    rayclass as rc, selmer as sm
from tclab.numberfield import NumberField, Q

from conftest import SQUAREFREE, quadratic_field
from test_selmer import tame_primes


_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPFD is not None:
        # step around pytest capture so the audit line reaches the log
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def L5():
    return quadratic_field(5)


@pytest.fixture(scope="module")
def layer5(L5):
    return eq.make_layer(Q, L5, [Fraction(0), Fraction(0)],
                         [L5.elt([1, -2])])


@pytest.fixture(scope="module")
def L7():
    return NumberField((-1, -2, 1, 1), label="zeta7plus")


@pytest.fixture(scope="module")
def layer7(L7):
    return eq.make_layer(Q, L7, [Fraction(0)] * 3, [L7.elt([-2, 0, 1])])


def test_01_example1_reproduction(L5, layer5):
    t0 = time.time()
    P5 = L5.factor_prime(5)[0]
    P107 = L5.factor_prime(107)[0]
    P197 = L5.factor_prime(197)[0]
    S, T, V = [P5], [P5, P107], [P5, P107, P197]
    rcg = [str(rc.ray_class_p_part(L5, X, 3).p_group) for X in (S, T, V)]
    A = eq.gamma_module(3, [[[2]]])
    sw = pl.sha_sandwich(L5, 3, T, V, layer=layer5, A=A)
    elapsed = time.time() - t0
    ok = (rcg == ["0", "Z/3", "Z/27"]
          and sw.certified and sw.pinned_dim == 1
          and sw.lower == 1 and sw.upper == 1
          and elapsed < 10)
    report("1 example-1 reproduction", ok,
           f"rcg={rcg} sandwich=({sw.lower},{sw.upper}) {elapsed:.2f}s")


def test_02_example2_reproduction(L7, layer7):
    t0 = time.time()
    first = lambda q: L7.factor_prime(q)[0]
    S = [first(7)]
    T = S + [first(181), first(293)]
    V = T + [first(307), first(349)]
    sets = [[], S, T, V]
    rcg = [str(rc.ray_class_p_part(L7, X, 2).p_group) for X in sets]
    rusb = [sm.selmer_basis(L7, X, 2).dim for X in sets]
    sha = [0, 0, None, 0]
    sw = pl.sha_sandwich(L7, 2, T, V)
    sha[2] = sw.pinned_dim
    A = eq.gamma_module(2, [[[0, 1], [1, 1]]])
    g_rusb = []
    for X in sets:
        Xt = layer7.orbit_closure(X)
        sb = sm.selmer_basis(L7, Xt, 2)
        g_rusb.append(eq.invariants_dim(
            eq.tensor(eq.dual(eq.selmer_module(layer7, sb)), A)))
    swt = pl.sha_sandwich(L7, 2, layer7.orbit_closure(T), layer7.orbit_closure(V),
                          layer=layer7, A=A, T_rep=T, V_rep=V)
    g_sha = [0, 0, swt.pinned_dim, 0]
    a_inv = eq.invariants_dim(eq.tensor(A, A))
    elapsed = time.time() - t0
    ok = (rcg == ["0", "0", "Z/2 x Z/2", "Z/4 x Z/4"]
          and rusb == [3, 2, 2, 0]
          and sha == [0, 0, 2, 0]
          and g_rusb == [2, 2, 2, 0]
          and g_sha == [0, 0, 2, 0]
          and a_inv == 2
          and elapsed < 60)
    report("2 example-2 reproduction", ok,
           f"rcg={rcg} rusb={rusb} sha={sha} g_rusb={g_rusb} "
           f"g_sha={g_sha} a_inv={a_inv} {elapsed:.2f}s")


def test_03_two_route_rusb_equality(L5, L7):
    t0 = time.time()
    rng = random.Random(314159)
    rows = 0
    # every worked-example row first
    P5 = L5.factor_prime(5)[0]
    chains5 = [[P5], [P5, L5.factor_prime(107)[0]],
               [P5, L5.factor_prime(107)[0], L5.factor_prime(197)[0]]]
    for X in chains5:
        assert sm.crosscheck_rusb(L5, X, 3)["agree"]
        rows += 1
    first7 = lambda q: L7.factor_prime(q)[0]
    T7 = [first7(7), first7(181), first7(293)]
    for X in ([], [first7(7)], T7, T7 + [first7(307), first7(349)]):
        assert sm.crosscheck_rusb(L7, X, 2)["agree"]
        rows += 1
    # inert primes: residue degree 3 (N = 8, 27, 125) and 2 (N = 4, 49)
    first5 = lambda q: L5.factor_prime(q)[0]
    for K, X, p in ((L7, [first7(2)], 7), (L7, [first7(3), first7(5)], 2),
                    (L7, [first7(3)], 13), (L5, [first5(2), first5(7)], 3)):
        assert all(P.f_deg > 1 for P in X)
        assert sm.crosscheck_rusb(K, X, p)["agree"]
        rows += 1
    # random quadratic corpus
    fields = []
    for n in SQUAREFREE:
        K = quadratic_field(n)
        if abs(K.disc) <= 200:
            fields.append(K)
    done = 0
    i = 0
    while done < 20:
        K = fields[i % len(fields)]
        i += 1
        p = rng.choice([3, 5])
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        S = tame_primes(K, p, rng, rng.randint(0, 3), blocked)
        assert sm.crosscheck_rusb(K, S, p)["agree"]
        done += 1
        rows += 1
    elapsed = time.time() - t0
    ok = rows >= 31 and elapsed < 300
    report("3 two-route RusB equality", ok, f"{rows} rows, {elapsed:.1f}s")


def test_04_v_empty_dimension_identity():
    rng = random.Random(271828)
    checked = 0
    for n in SQUAREFREE:
        K = quadratic_field(n)
        if abs(K.disc) > 200:
            continue
        for p in (3, 5):
            sb = sm.selmer_basis(K, [], p)
            ub = cu.unit_group(K)
            r1, r2 = K.signature
            expect = r1 + r2 - 1 + ub.delta_p(p) + cu.class_group(K).p_rank(p)
            assert sb.dim == expect, (n, p, sb.dim, expect)
            checked += 1
    ok = checked >= 40
    report("4 dim V_0 unit/class identity", ok, f"{checked} field/prime pairs")


def test_05_orbit_closure(L7, layer7):
    first = lambda q: L7.factor_prime(q)[0]
    T_prime = [first(7), first(181), first(293)]
    rep = pl.orbit_closure_check(layer7, layer7.orbit_closure([first(7)]),
                                 T_prime[1:], 2)
    draws_ok = True
    rng = random.Random(31415)
    stable_sets = [[], layer7.orbit_closure([first(7)])]
    pools = [pl.find_preserving_primes(L7, S, 2, 8).X for S in stable_sets]
    for _ in range(20):
        k = rng.randrange(2)
        X = rng.sample(pools[k], rng.randint(1, 3))
        out = pl.orbit_closure_check(layer7, stable_sets[k], X, 2)
        draws_ok = draws_ok and out["agree"]
    ok = rep["agree"] and draws_ok
    report("5 orbit-closure invariance", ok,
           f"example pair agree={rep['agree']}, 20 seeded draws agree={draws_ok}")


def test_06_descent_trivial_coefficients(layer5):
    tame_sets = [[5], [5, 7], [5, 13], [5, 7, 13], [5, 23], [5, 31, 37]]
    all_ok = True
    for T in tame_sets:
        out = eq.descent_check(layer5, T, 3)
        all_ok = all_ok and out["agree"] and out["certified"]
    ok = all_ok and len(tame_sets) >= 5
    report("6 descent with trivial coefficients", ok,
           f"{len(tame_sets)} tame sets over the base field")


def naive_cube_oracle(x, P):
    """Enumerate all cubes in the residue field and test membership."""
    F = P.residue_field
    cubes = set()
    for e in F.elements():
        if not F.is_zero(e):
            cubes.add(F.pow(e, 3))
    return P.residue(x) in cubes


def test_07_preserving_prime_scanner(L5):
    t0 = time.time()
    ps = pl.find_preserving_primes(L5, [], 3, 3, norm_bound=10**4)
    sb = sm.selmer_basis(L5, [], 3)
    all_ok = ps.verified and ps.shortfall == 0
    for P in ps.X:
        for g in sb.generators:
            all_ok = all_ok and naive_cube_oracle(g, P)
        after = sm.selmer_basis(L5, [P], 3)
        all_ok = all_ok and after.dim == sb.dim
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 30
    report("7 preserving-prime scanner", ok,
           f"X={[P.label for P in ps.X]} {elapsed:.2f}s")


def test_08_exceptionality_checker(L7):
    rep_q = sm.is_exceptional(Q, [])
    rep_i = sm.is_exceptional(quadratic_field(-1), [])
    first = lambda q: L7.factor_prime(q)[0]
    T = [first(7), first(181), first(293)]
    rep_t = sm.is_exceptional(L7, T)
    ok = (not rep_q.condition_b and not rep_q.exceptional
          and not rep_i.condition_a and not rep_i.exceptional
          and rep_t.per_prime_c == [("7_1", False), ("181_1", True),
                                    ("293_1", True)]
          and not rep_t.exceptional)
    report("8 exceptionality checker", ok,
           f"Q via (b), Q(i) via (a), example per-prime (c)={rep_t.per_prime_c}")


def test_09_property_suites():
    t0 = time.time()
    from tclab import intlinalg as la
    rng = random.Random(555)
    # SNF: 200 random matrices
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        d, u, v, _ = la.smith_normal_form(m)
        assert la.mat_mul(la.mat_mul(u, m), v) == d
        assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
    # Selmer anti-monotonicity: 50 nested chains
    fields = [quadratic_field(n) for n in (5, 13, -7, -23, 10, 17, -11, 2, 3, -1)]
    for k in range(50):
        K = fields[k % len(fields)]
        p = rng.choice([3, 5])
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        chain = tame_primes(K, p, rng, 3, blocked)
        dims = [sm.selmer_basis(K, chain[:j], p).dim
                for j in range(len(chain) + 1)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))
    # Nq != 1 mod p: adding such a prime never moves the Selmer dimension
    cases = 0
    for n in (5, -1, 13, 10, -23):
        K = quadratic_field(n)
        base = sm.selmer_basis(K, [], 3).dim
        blocked = {(P.q, P.index) for P in cu.class_group(K).generating_primes}
        for q in (2, 5, 7, 11, 17, 23, 29, 41, 47, 53):
            if q == 3:
                continue
            for P in K.factor_prime(q):
                if P.e > 1 or P.norm % 3 == 1 or (P.q, P.index) in blocked:
                    continue
                assert sm.selmer_basis(K, [P], 3).dim == base
                cases += 1
                if cases >= 20:
                    break
            if cases >= 20:
                break
        if cases >= 20:
            break
    elapsed = time.time() - t0
    ok = cases >= 20 and elapsed < 300
    report("9 property suites", ok,
           f"200 SNF, 50 chains, {cases} inert conditions, {elapsed:.1f}s")

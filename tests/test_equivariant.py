from fractions import Fraction
from itertools import combinations

import pytest

from tclab import cli, equivariant as eq, intlinalg as la, numberfield as nf
from tclab import rayclass as rc, selmer as sm
from tclab.numberfield import NumberField, Q, is_prime
from tclab.polys import poly_eval

from conftest import quadratic_field

GAMMA5 = [1, -2]  # sqrt 5 -> -sqrt 5 in the [1, (1+sqrt5)/2] basis
GAMMA7 = [-2, 0, 1]


def _zeta7plus_layer():
    L = NumberField((-1, -2, 1, 1), label="zeta7plus")
    return eq.make_layer(Q, L, [Fraction(0), Fraction(0), Fraction(0)], [L.elt(GAMMA7)])


@pytest.fixture(scope="module")
def layer5():
    L = quadratic_field(5)
    return eq.make_layer(Q, L, [Fraction(0), Fraction(0)], [L.elt(GAMMA5)])


@pytest.fixture(scope="module")
def layer7():
    return _zeta7plus_layer()


def _elements(layer):
    """Every element of the layer's group, from its generators."""
    L = layer.L_field
    return eq._closure(layer.gamma_gens, eq.Automorphism(L, la.identity(L.degree)),
                       eq.Automorphism.compose, 24)


def test_layer_orders(layer5, layer7):
    assert layer5.order == 2
    assert layer7.order == 3


def test_automorphism_respects_arithmetic(layer5):
    L = layer5.L_field
    g = _elements(layer5)[1]
    a = L.elt([2, 3])
    b = L.elt([-1, 4])
    assert g(a * b) == g(a) * g(b)
    assert g(a + b) == g(a) + g(b)


def test_matrix_action_matches_substitution(layer5, layer7, rng):
    # The reference is the substitution theta -> image on power coordinates.
    for layer, image in ((layer5, GAMMA5), (layer7, GAMMA7)):
        L = layer.L_field
        image = L.elt(image)
        g = layer.gamma_gens[0]
        for _ in range(20):
            x = L.elt([Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                       for _ in range(L.degree)])
            gx = poly_eval(x.power_coords(), image)
            assert g(x) == gx
            assert g.compose(g)(x) == poly_eval(gx.power_coords(), image)
            orbit = {x}
            while gx not in orbit:
                orbit.add(gx)
                gx = poly_eval(gx.power_coords(), image)
            assert {e(x) for e in _elements(layer)} == orbit


def test_prime_orbits(layer7):
    L = layer7.L_field
    # 13 splits completely; Gamma permutes the three primes transitively
    orbit = layer7.orbit_closure([L.factor_prime(13)[0]])
    assert sorted(P.label for P in orbit) == ["13_1", "13_2", "13_3"]
    # 7 is totally ramified, a singleton orbit
    assert len(layer7.orbit_closure([L.factor_prime(7)[0]])) == 1


def test_orbit_closure_matches_group_closure(layer7, rng):
    L = layer7.L_field
    pool = [P for q in range(2, 120) if is_prime(q) for P in L.factor_prime(q)]
    for _ in range(25):
        X = rng.sample(pool, rng.randint(0, 6))
        ref = eq.prime_set(e.prime_image(P) for e in _elements(layer7) for P in X)
        assert layer7.orbit_closure(X) == ref
        assert layer7.is_stable(X) == (len(ref) == len(X))


def test_prime_images_found_once(monkeypatch):
    layer = _zeta7plus_layer()
    L = layer.L_field
    seen = []
    real = eq.Automorphism.prime_image
    monkeypatch.setattr(eq.Automorphism, "prime_image",
                        lambda g, P: seen.append((g, P.q, P.index)) or real(g, P))
    sets = [[L.factor_prime(q)[0] for q in qs] for qs in ((7,), (13, 181), (7, 13, 293))]
    for _ in range(3):
        for X in sets:
            assert layer.is_stable(layer.orbit_closure(X))
            layer.is_stable(X)
    assert len(seen) == len(set(seen)) == 1 + 3 + 3 + 3


def test_orbit_closure_and_stability(layer7):
    L = layer7.L_field
    X = [L.factor_prime(181)[0]]
    closed = layer7.orbit_closure(X)
    assert len(closed) == 3
    assert layer7.is_stable(closed)
    assert not layer7.is_stable(X)


def test_stability_ignores_repeated_primes(layer7):
    L = layer7.L_field
    P7, P181 = L.factor_prime(7)[0], L.factor_prime(181)[0]
    closed = layer7.orbit_closure([P181])
    assert layer7.is_stable([P7, P7])
    assert layer7.is_stable(closed + closed[:1] + [P7, P7])
    assert not layer7.is_stable([P181, P181, P181])


def test_gamma_module_invariants():
    # sign action of order 2 on F_3: no invariants
    m = eq.gamma_module(3, [[[2]]])
    assert eq.invariants_dim(m) == 0
    assert eq.invariants_dim(eq.trivial_module(3, 2, 1, 2)) == 2


def test_gamma_module_reads_entries_mod_p():
    # The closure compares matrices by value, so they are kept reduced.
    a, b = eq.gamma_module(5, [[[1, 7], [3, 4]]]), eq.gamma_module(5, [[[1, 2], [3, 4]]])
    assert a.mats == b.mats == [[[1, 2], [3, 4]]]
    assert a.group_order == b.group_order
    assert eq.invariants_dim(a) == eq.invariants_dim(b)
    for bad in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="rows of lengths"):
            eq.gamma_module(5, [bad])


def test_is_action_needs_the_layer_relations(layer5, layer7):
    # Gamma = Z/2 on sqrt 5 and Z/3 on zeta7plus: M must satisfy M^2 = 1,
    # resp. M^3 = 1.  [[0, 1], [2, 0]] squares to -1 over F_3, and
    # [[1, 1], [0, 1]] has order 2 over F_2.
    assert eq.is_action(layer5, eq.gamma_module(3, [[[2]]]))
    assert eq.is_action(layer5, eq.trivial_module(3, 2, 1, 1))
    assert not eq.is_action(layer5, eq.gamma_module(3, [[[0, 1], [2, 0]]]))
    assert eq.is_action(layer7, eq.gamma_module(2, [[[0, 1], [1, 1]]]))
    assert not eq.is_action(layer7, eq.gamma_module(2, [[[1, 1], [0, 1]]]))
    assert not eq.is_action(layer7, eq.trivial_module(2, 1, 2, 1))


def test_example2_twist_group_order():
    # The closure that counts the group compares action matrices by value:
    # the companion matrix of x^2 + x + 1 over F_2 has order 3.
    twist = cli._load_layer_config("example2.ini")["twist"]
    assert (twist.dim, twist.p, twist.group_order) == (2, 2, 3)
    assert eq.gamma_module(3, [[[2]]]).group_order == 2


def test_tensor_and_dual():
    # F_2^2 with the order-3 companion matrix A: (A tensor A)^Gamma has dim 2
    A = eq.gamma_module(2, [[[0, 1], [1, 1]]])
    assert eq.invariants_dim(A) == 0
    assert eq.invariants_dim(eq.tensor(A, A)) == 2
    assert eq.invariants_dim(eq.dual(A)) == 0
    # sign module over F_3: dual of sign is sign, sign tensor sign trivial
    s = eq.gamma_module(3, [[[2]]])
    assert eq.invariants_dim(eq.tensor(s, s)) == 1
    assert eq.invariants_dim(eq.tensor(s, eq.dual(s))) == 1


@pytest.mark.parametrize("p,g,order", [(7, 2, 3), (5, 2, 4)])
def test_dual_of_a_character_that_is_not_self_dual(p, g, order):
    # gamma acting by g on F_p is a character chi of Z/order with chi^2 != 1,
    # so chi^dual = chi^-1 != chi: (chi^dual tensor chi)^Gamma = Hom_Gamma(chi,
    # chi) is the scalars, and (chi tensor chi)^Gamma = 0.
    chi = eq.gamma_module(p, [[[g]]])
    assert chi.group_order == order
    assert eq.invariants_dim(eq.tensor(eq.dual(chi), chi)) == 1
    assert eq.invariants_dim(eq.tensor(chi, chi)) == 0
    M = eq.gamma_module(p, [[[g, 1], [0, 1]]])
    for m in (chi, M):
        assert eq.dual(eq.dual(m)).mats == m.mats


def test_dual_over_a_group_with_two_generators():
    # The Frobenius group of order 21 in GL_3(F_43): a = diag(z, z^2, z^4)
    # for z = -2 of order 7, and the 3-cycle b, with b a b^-1 a power of a.
    # rho is irreducible with eigenvalues z, z^2, z^4 at a, and rho^dual has
    # z^6, z^5, z^3, so (rho^dual tensor rho)^Gamma = End_Gamma(rho) is the
    # scalars and (rho^dual tensor rho^dual)^Gamma = Hom_Gamma(rho, rho^dual)
    # is 0.  Dropping the transpose or the inverse from dual gives 0 for the
    # first.
    rho = eq.gamma_module(43, [[[41, 0, 0], [0, 4, 0], [0, 0, 16]],
                               [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
    assert rho.group_order == 21
    assert eq.invariants_dim(eq.tensor(eq.dual(rho), rho)) == 1
    assert eq.invariants_dim(eq.tensor(eq.dual(rho), eq.dual(rho))) == 0


def test_selmer_module_action_order(layer7):
    L = layer7.L_field
    T = layer7.orbit_closure([L.factor_prime(7)[0], L.factor_prime(181)[0],
                              L.factor_prime(293)[0]])
    sb = sm.selmer_basis(L, T, 2)
    m = eq.selmer_module(layer7, sb)
    assert m.dim == sb.dim
    g = m.mats[0]
    gg = la.mat_mul(g, la.mat_mul(g, g))
    assert [[x % 2 for x in row] for row in gg] == la.identity(m.dim)


def test_selmer_module_requires_stable_set(layer7):
    L = layer7.L_field
    sb = sm.selmer_basis(L, [L.factor_prime(181)[0]], 2)
    with pytest.raises(Exception):
        eq.selmer_module(layer7, sb)


def test_kernel_module_golden(layer5):
    L = layer5.L_field
    P5 = L.factor_prime(5)[0]
    P107 = L.factor_prime(107)[0]
    P197 = L.factor_prime(197)[0]
    small = rc.ray_class_p_part(L, [P5, P107], 3)
    big = rc.ray_class_p_part(L, [P5, P107, P197], 3)
    m = eq.kernel_module(layer5, big, small)
    assert m.dim == 1
    assert m.mats == [[[2]]]


def test_kernel_module_trivial_big_group():
    # RCG_{3} of Q is trivial at p = 2, but 3 carries a residue generator.
    layer = eq.make_layer(Q, Q, [0], [])
    big = rc.ray_class_p_part(Q, [Q.factor_prime(3)[0]], 2)
    small = rc.ray_class_p_part(Q, [], 2)
    assert big.group.is_trivial and big.res_gens
    assert rc.rcg_surjection_kernel(big, small).is_trivial
    assert eq.kernel_module(layer, big, small).dim == 0


def test_descent_trivial_coefficients(layer5):
    out = eq.descent_check(layer5, [5, 7], 3)
    assert out["agree"]
    assert out["certified"]


def test_descent_refuses_p_dividing_gamma(layer5):
    with pytest.raises(Exception):
        eq.descent_check(layer5, [5], 2)


def _module(m):
    return m.dim, m.group_order, m.mats


# (dim, group order, generator matrices) of the Gamma-modules of the two
# worked examples on their orbit-closed prime sets, captured from the
# implementation that built Gamma's action on every ray class generator.
SELMER_MODULES = [
    ("example1.ini", "t", (1, 2, [[[2]]])),
    ("example2.ini", "", (3, 3, [[[0, 1, 0], [1, 1, 0], [0, 0, 1]]])),
    ("example2.ini", "s", (2, 3, [[[0, 1], [1, 1]]])),
    ("example2.ini", "t", (2, 3, [[[0, 1], [1, 1]]])),
    ("example2.ini", "v", (0, 3, [[]])),
]
# The kernel modules' matrices are read on the residues of character 1 at
# the extra primes.
KERNEL_MODULES = [
    ("example1.ini", "v", "t", (1, 2, [[[2]]])),
    ("example2.ini", "v", "t", (6, 3, [[
        [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 1]]])),
    ("example2.ini", "t", "s", (6, 3, [[
        [0, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0]]])),
    ("example2.ini", "v", "s", (10, 3, [[
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0, 1]]])),
]


def _closed_set(ctx, key):
    spec = ctx["primes"][key] if key else ""
    return ctx["layer"].orbit_closure(cli.parse_prime_set(ctx["L"], spec))


@pytest.mark.parametrize("ini,key,expected", SELMER_MODULES)
def test_selmer_module_table(ini, key, expected):
    ctx = cli._load_layer_config(ini)
    sb = sm.selmer_basis(ctx["L"], _closed_set(ctx, key), ctx["p"])
    assert _module(eq.selmer_module(ctx["layer"], sb)) == expected


def _certificate_sets(ini):
    """(layer, p, sets) for an example: 40 orbit-closed sets, the closures
    of the first prime above each of ten unramified q, and of thirty
    pairs of them."""
    ctx = cli._load_layer_config(ini)
    L, layer, p = ctx["L"], ctx["layer"], ctx["p"]
    qs = [q for q in nf._primes_up_to(400)
          if q != p and all(P.e == 1 for P in L.factor_prime(q))][:10]
    qsets = [[q] for q in qs] + [list(c) for c in combinations(qs, 2)][:30]
    return layer, p, [layer.orbit_closure([L.factor_prime(q)[0] for q in qset])
                      for qset in qsets]


def _reference_selmer_module(layer, sb):
    """The generator matrices of the route that certified the Selmer
    generators themselves: auxiliary primes for sb.generators, then each
    gamma image solved against their character rows."""
    p, gens = sb.p, sb.generators
    ok, aux, rows = nf.certify_independence(layer.L_field, gens, sb.S, p)
    assert ok
    return [la.transpose([la.fp_solve(rows, [sm.power_residue_class(gamma(g), P, p) for P in aux],
                                      p, len(gens))
                          for g in gens])
            for gamma in layer.gamma_gens]


@pytest.mark.parametrize("ini", ["example1.ini", "example2.ini"])
def test_selmer_module_reads_the_basis_certificate(monkeypatch, ini):
    # On the 40 orbit-closed sets of each layer, selmer_module reads the certificate of the V_emptyset generators through the kernel
    # vectors and certifies nothing itself.
    layer, p, sets = _certificate_sets(ini)
    L = layer.L_field
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = nf.certify_independence
    nontrivial = 0
    for S in sets:
        sb = sm.selmer_basis(L, S, p)
        expected = _reference_selmer_module(layer, sb) if sb.dim else [[]] * len(layer.gamma_gens)
        for mod in (nf, sm, eq):
            monkeypatch.setattr(mod, "certify_independence", counted, raising=False)
        m = eq.selmer_module(layer, sb)
        monkeypatch.undo()
        assert m.mats == expected and m.dim == sb.dim, [P.label for P in S]
        nontrivial += sb.dim > 0
    assert not calls and nontrivial >= 10


def _transposed_certify_independence(field, gens, skip, p):
    """certify_independence as it tested each row: the rank of the
    transpose of the kept rows and the new one."""
    if not gens:
        return True, [], []
    rows, aux = [], []
    for P, row in nf.tame_characters(field, gens, skip, p, nf._primes_up_to(10007)[1:]):
        if la.fp_rank(la.transpose(rows + [row]), p, len(rows) + 1) > len(rows):
            rows.append(row)
            aux.append(P)
            if len(rows) == len(gens):
                return True, aux, rows
    return False, aux, rows


@pytest.mark.parametrize("ini", ["example1.ini", "example2.ini"])
def test_certify_independence_matches_the_transposed_rank(ini):
    # rank(M^t) = rank(M): the same primes and rows, for the Selmer
    # generators and the V_emptyset generators of every set.
    layer, p, sets = _certificate_sets(ini)
    L = layer.L_field
    for S in sets:
        sb = sm.selmer_basis(L, S, p)
        for gens in (sb.generators, sb.v0_generators):
            got, want = (f(L, gens, S, p) for f in (nf.certify_independence,
                                                     _transposed_certify_independence))
            assert (got[0], [P.label for P in got[1]], got[2]) == (
                want[0], [P.label for P in want[1]], want[2]), [P.label for P in S]


@pytest.mark.parametrize("ini,big,small,expected", KERNEL_MODULES)
def test_kernel_module_table(ini, big, small, expected):
    ctx = cli._load_layer_config(ini)
    rcd = {k: rc.ray_class_p_part(ctx["L"], _closed_set(ctx, k), ctx["p"]) for k in (big, small)}
    assert _module(eq.kernel_module(ctx["layer"], rcd[big], rcd[small])) == expected


@pytest.mark.parametrize("shifted", [False, True], ids=["bundled", "shifted"])
def test_ray_class_data_do_not_depend_on_the_basis(tmp_path, shifted):
    # zeta7plus on the basis 1, 1 + theta, theta + theta^2, where gamma's
    # image -2 + theta^2 has coordinates -1 -1 1, reads its characters
    # through another residue matrix and gives the bundled example's numbers.
    ini = "example2.ini"
    if shifted:
        (tmp_path / "shifted.field").write_text("poly -1 -2 1 1\nbasis 1 0 0 / 1 1 0 / 0 1 1\n")
        ini = tmp_path / "shifted.ini"
        ini.write_text(cli._data_path("example2.ini").read_text()
                       .replace("zeta7plus.field", "shifted.field")
                       .replace("gamma = -2 0 1", "gamma = -1 -1 1"))
    ctx = cli._load_layer_config(str(ini))
    L, layer, p, A = ctx["L"], ctx["layer"], ctx["p"], ctx["twist"]
    sets = {k: cli.parse_prime_set(L, ctx["primes"][k] if k else "") for k in ("", "s", "t", "v")}
    assert [rc.ray_class_p_part(L, X, p).p_group.invariant_factors
            for X in sets.values()] == [(), (), (2, 2), (4, 4)]
    rcd = {k: rc.ray_class_p_part(L, layer.orbit_closure(X), p) for k, X in sets.items()}
    assert [r.p_group.invariant_factors for r in rcd.values()] == \
        [(), (), (2, 2, 4, 4, 4, 4), (2, 2, 2) + (4,) * 7]
    kt, ks = (eq.kernel_module(layer, rcd["v"], rcd[k]) for k in "ts")
    assert [eq.invariants_dim(m) for m in (kt, eq.tensor(kt, A), ks, eq.tensor(ks, A))] == \
        [2, 4, 4, 6]


def test_kernel_module_lifts_each_kernel_generator_once(monkeypatch):
    # Example 2's V~ has 13 residue generators; only the 6 that generate
    # the kernel over T~ (at the primes above 307 and 349) are lifted, once.
    ctx = cli._load_layer_config("example2.ini")
    big, small = (rc.ray_class_p_part(ctx["L"], _closed_set(ctx, k), ctx["p"]) for k in "vt")
    lifted = []
    real = eq._crt_lift
    monkeypatch.setattr(eq, "_crt_lift",
                        lambda F, ps, j, t: lifted.append(ps[j].q) or real(F, ps, j, t))
    eq.kernel_module(ctx["layer"], big, small)
    assert sorted(lifted) == [307] * 3 + [349] * 3


def test_prime_set_distinct_and_ordered(layer7):
    L = layer7.L_field
    P7, P13 = L.factor_prime(7)[0], L.factor_prime(13)[1]
    assert eq.prime_set([P13, P7, P13, P7]) == [P7, P13]
    assert eq.prime_set([]) == []

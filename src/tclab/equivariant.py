"""Galois layers and F_p[Gamma]-module bookkeeping.

An automorphism of L is its integer matrix on the integral basis of L,
built once from the image of theta (validated by substitution); applying
it is one matrix-vector product and composing two is one matrix product.
The action on primes is read from the layer's generators only, each
(generator, prime) image found once per layer.  Actions on Selmer groups
and on kernels of ray class surjections are expressed as F_p matrices on
the carriers' own bases, so invariants and tensor constructions reduce to
plain linear algebra over F_p.
"""

from __future__ import annotations

from . import intlinalg as la
from .numberfield import (
    FieldError,
    NFElement,
    NumberField,
    PrimeIdeal,
    ideal_sum_contains_one,
    lattice_mul,
)
from .polys import poly_eval, prime_factors
from .rayclass import RayClassData, kernel_presentation
from .selmer import SelmerBasis, power_residue_class


class Automorphism:
    """An automorphism of L fixing K, held as its integer matrix on the
    integral basis of L: column j is the coordinate vector of gamma(b_j)."""

    def __init__(self, field: NumberField, matrix):
        self.field = field
        self.matrix = tuple(map(tuple, matrix))

    @classmethod
    def from_image(cls, field: NumberField, image) -> "Automorphism":
        """theta -> image, validated by substitution.  gamma(O_L) = O_L and
        the integral basis is proven maximal, so the matrix is integral."""
        image = field.elt(image)
        if not poly_eval(field.min_poly, image).is_zero():
            raise FieldError("image is not a root of the minimal polynomial")
        cols = [poly_eval(row, image) for row in field._basis_rows]
        assert all(c.den == 1 for c in cols)
        return cls(field, zip(*(c.nums for c in cols)))

    def __call__(self, x: NFElement) -> NFElement:
        """gamma(x); the matrix is unimodular, so nums stay prime to den."""
        x = self.field.elt(x)
        return NFElement(self.field, tuple(la.mat_vec(self.matrix, x.nums)), x.den)

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self o other."""
        return Automorphism(self.field, la.mat_mul(self.matrix, other.matrix))

    def prime_image(self, P: PrimeIdeal) -> PrimeIdeal:
        g = self(P.second_generator())
        cands = [Q for Q in self.field.factor_prime(P.q) if not Q.is_unit_at(g)]
        if len(cands) != 1:  # pragma: no cover
            raise FieldError(f"conjugate of {P.label} not identified")
        Q = cands[0]
        assert Q.e == P.e and Q.f_deg == P.f_deg
        return Q


class GaloisLayer:
    __slots__ = ("K_field", "L_field", "gamma_gens", "order", "prime_images")

    def __init__(self, K_field: NumberField, L_field: NumberField,
                 gamma_gens: list[Automorphism], order: int):
        self.K_field = K_field
        self.L_field = L_field
        self.gamma_gens = gamma_gens
        self.order = order
        # (generator index, (q, prime index)) -> the image prime, found once.
        self.prime_images = {}

    def orbit_closure(self, primes: list[PrimeIdeal]) -> list[PrimeIdeal]:
        """The least set containing primes that the generators, and hence
        the group, map into itself."""
        closed = {(P.q, P.index): P for P in primes}
        todo = list(closed)
        while todo:
            key = todo.pop()
            for i, g in enumerate(self.gamma_gens):
                if (i, key) not in self.prime_images:
                    self.prime_images[i, key] = g.prime_image(closed[key])
                Q = self.prime_images[i, key]
                if (Q.q, Q.index) not in closed:
                    closed[Q.q, Q.index] = Q
                    todo.append((Q.q, Q.index))
        return prime_set(closed.values())

    def is_stable(self, primes: list[PrimeIdeal]) -> bool:
        """Whether the set of primes is Gamma-stable; repeats are ignored."""
        return len(self.orbit_closure(primes)) == len(prime_set(primes))

    def ramified_rational_primes(self) -> list[int]:
        out = []
        for q in prime_factors(abs(self.L_field.disc)):
            eL = max(P.e for P in self.L_field.factor_prime(q))
            eK = max(P.e for P in self.K_field.factor_prime(q))
            if eL > eK:
                out.append(q)
        return out


def prime_set(primes) -> list[PrimeIdeal]:
    """The distinct primes among primes, ordered by (q, index)."""
    distinct = {(P.q, P.index): P for P in primes}
    return [distinct[k] for k in sorted(distinct)]


def _closure(gens: list, one, mul, limit: int) -> list:
    """The group generated by gens, listed breadth first from one, where
    mul(g, a) is the product of a generator g with an element a."""
    elems = [one]
    frontier = [one]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = mul(g, a)
                if c not in elems:
                    elems.append(c)
                    nxt.append(c)
        frontier = nxt
        if len(elems) > limit:  # pragma: no cover
            raise FieldError(f"group does not close within {limit} elements")
    return elems


def make_layer(K_field: NumberField, L_field: NumberField, embedding,
               gamma_images: list) -> GaloisLayer:
    emb = L_field.elt(embedding)
    # The embedding must send K's generator to a root of K's polynomial.
    if not poly_eval(K_field.min_poly, emb).is_zero():
        raise FieldError("embedding does not satisfy K's minimal polynomial")
    gens = [Automorphism.from_image(L_field, img) for img in gamma_images]
    for g in gens:
        if g(emb) != emb:
            raise FieldError("automorphism does not fix the base field")
    order = len(_closure(gens, Automorphism(L_field, la.identity(L_field.degree)),
                         Automorphism.compose, 24))
    n = L_field.degree // K_field.degree
    if order != n:
        raise FieldError(f"expected a group of order {n}, closed at {order}")
    return GaloisLayer(K_field, L_field, gens, order)


# ---------------------------------------------------------------------------
# Gamma-modules


class GammaModule:
    """F_p^dim with one action matrix per layer generator, each a list of
    rows reduced mod p, and the order of the group they generate."""

    __slots__ = ("dim", "p", "mats", "group_order")

    def __init__(self, dim: int, p: int, mats: list[la.Matrix], group_order: int):
        for m in mats:
            if la.fp_rank(m, p, dim) != dim:
                raise ValueError("action matrix is singular")
        self.dim = dim
        self.p = p
        self.mats = mats  # one per layer generator
        self.group_order = group_order


def _fp_mul(a: la.Matrix, b: la.Matrix, p: int) -> la.Matrix:
    """a b over F_p, reduced, so that _closure can compare products."""
    return [[x % p for x in row] for row in la.mat_mul(a, b)]


def trivial_module(p: int, dim: int, n_gens: int, order: int) -> GammaModule:
    return GammaModule(dim, p, [la.identity(dim) for _ in range(n_gens)], order)


def gamma_module(p: int, mats: list[la.Matrix]) -> GammaModule:
    """The module of the action matrices mats over F_p, which must be
    square and of one size."""
    dim = len(mats[0]) if mats else 0
    for m in mats:
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValueError(f"action matrix with rows of lengths {[len(row) for row in m]}"
                             f" is not {dim} x {dim}")
    ms = [[[x % p for x in row] for row in m] for m in mats]
    order = len(_closure(ms, la.identity(dim), lambda a, b: _fp_mul(a, b, p), 4096))
    return GammaModule(dim, p, ms, order)


def is_action(layer: GaloisLayer, m: GammaModule) -> bool:
    """Whether gamma_i -> M_i, for the layer's generators gamma_i and m's
    matrices M_i, defines an action of the layer's group: the pairs
    (gamma_i, M_i) generate a group of the layer's order exactly when
    every relation among the gamma_i holds among the M_i."""
    if len(m.mats) != len(layer.gamma_gens):
        return False
    one = (Automorphism(layer.L_field, la.identity(layer.L_field.degree)), la.identity(m.dim))
    pairs = _closure(list(zip(layer.gamma_gens, m.mats)), one,
                     lambda g, a: (g[0].compose(a[0]), _fp_mul(g[1], a[1], m.p)),
                     layer.order * m.group_order)
    return len(pairs) == layer.order


def invariants_dim(m: GammaModule) -> int:
    """dim of the common fixed space; when p does not divide the group
    order, also computed as the rank of the averaging idempotent and
    asserted equal."""
    if m.dim == 0:
        return 0
    p = m.p
    stacked = [[(x - (i == j)) % p for j, x in enumerate(row)]
               for g in m.mats for i, row in enumerate(g)]
    d = len(la.fp_kernel(stacked, p, m.dim))
    if m.group_order % p != 0:
        elems = _closure(m.mats, la.identity(m.dim), lambda a, b: _fp_mul(a, b, p), 4096)
        inv = pow(len(elems), -1, p)
        avg = [[sum(e[i][j] for e in elems) * inv % p for j in range(m.dim)]
               for i in range(m.dim)]
        r = la.fp_rank(avg, p)
        assert r == d, f"idempotent rank {r} != fixed-space dim {d}"
    return d


def tensor(m1: GammaModule, m2: GammaModule) -> GammaModule:
    """The Kronecker product of the generator matrices: row i d2 + k,
    column j d2 + l holds a[i][j] b[k][l], for d2 = dim m2."""
    if m1.p != m2.p:
        raise ValueError("modulus mismatch")
    if len(m1.mats) != len(m2.mats):
        raise ValueError("generator count mismatch")
    p = m1.p
    mats = [[[x * y % p for x in ra for y in rb] for ra in a for rb in b]
            for a, b in zip(m1.mats, m2.mats)]
    return GammaModule(m1.dim * m2.dim, p, mats, m1.group_order)


def dual(m: GammaModule) -> GammaModule:
    """Contragredient action (inverse transpose per generator)."""
    mats = [la.transpose(la.fp_inverse(g, m.p)) for g in m.mats]
    return GammaModule(m.dim, m.p, mats, m.group_order)


# ---------------------------------------------------------------------------
# Induced actions on arithmetic carriers


def selmer_module(layer: GaloisLayer, sb: SelmerBasis) -> GammaModule:
    """Action on the Selmer basis, solved against the basis's own
    certificate: characters are additive, so the Selmer generators' rows
    at the auxiliary primes are the V_emptyset generators' rows times the
    kernel vectors, and full rank makes each gamma image's solution unique."""
    if not layer.is_stable(sb.S):
        raise FieldError("S is not Gamma-stable; take the orbit closure first")
    p, gens = sb.p, sb.generators
    if not gens:
        return trivial_module(p, 0, len(layer.gamma_gens), layer.order)
    B = la.mat_mul(sb.aux_rows, la.transpose(sb.kernel_vectors))
    if la.fp_rank(B, p, len(gens)) < len(gens):  # pragma: no cover
        raise FieldError("auxiliary primes failed to separate the basis")
    mats = []
    for gamma in layer.gamma_gens:
        cols = []
        for g in gens:
            img = gamma(g)
            v = [power_residue_class(img, P, p) for P in sb.aux_primes]
            sol = la.fp_solve(B, v, p, len(gens))
            if sol is None:  # pragma: no cover
                raise FieldError("gamma image is not in the carrier span")
            cols.append(sol)
        mats.append(la.transpose(cols))
    return GammaModule(len(gens), p, mats, layer.order)


def _crt_lift(field, primes, j, target):
    """x = target mod primes[j], x = 1 mod the others."""
    others = [P.lattice() for i, P in enumerate(primes) if i != j]
    if not others:
        return field.elt(target)
    M = others[0]
    for lat in others[1:]:
        M = lattice_mul(field, M, lat)
    pair = ideal_sum_contains_one(field, M, primes[j].lattice())
    if pair is None:  # pragma: no cover
        raise FieldError("modulus primes are not coprime")
    a, b = pair  # a in prod(others), b in P_j, a + b = 1
    return field.elt(target) * a + b


def kernel_module(layer: GaloisLayer, big: RayClassData, small: RayClassData) -> GammaModule:
    """ker(RCG_big ->> RCG_small) tensored with F_p, with its
    Gamma-action (both moduli must be Gamma-stable)."""
    if not (layer.is_stable(big.modulus) and layer.is_stable(small.modulus)):
        raise FieldError("moduli are not Gamma-stable")
    p = big.p
    extra, lattice, pres = kernel_presentation(big, small)
    pos = pres.p_indices(p)
    if not pos:
        return trivial_module(p, 0, len(layer.gamma_gens), layer.order)
    # The kernel is generated by the residues of character 1 at the extra
    # primes, z^(m^-1 mod p^a) for m = (N(P) - 1)/p^a; lift each to x = that
    # residue mod its prime, x = 1 mod the rest of the modulus (the residue
    # primes come first, in res_gens order).
    primes = [P for P, _ in big.res_gens]
    primes += [P for P in big.modulus if all(P is not Q for Q in primes)]
    lifts = []
    for i in extra:
        P, pa = big.res_gens[i]
        rf = P.residue_field
        r = rf.pow(rf.subgroup_generator(pa), pow((P.norm - 1) // pa, -1, pa))
        x = _crt_lift(layer.L_field, primes, i, P.lift(r))
        assert P.character(x, pa) == 1 % pa
        lifts.append(x)
    pad = [0] * len(big.class_data.generating_primes)
    mats = []
    for gamma in layer.gamma_gens:
        # Image of each kernel generator back in kernel coordinates:
        # solve W e + D y = coords(image).
        images = []
        for x in lifts:
            img = gamma(x)
            v = [P.character(img, pa) for P, pa in big.res_gens] + pad
            sol = la.solve_integer(lattice, list(big.pres.coords(v)))
            if sol is None:  # pragma: no cover
                raise FieldError("gamma image left the kernel")
            images.append(sol[:len(extra)])
        images = la.transpose(images)  # column j: image of kernel generator j
        # Its F_p matrix on the kernel mod p, in invariant-factor coordinates.
        cols = []
        for i in pos:
            y = la.mat_vec(pres.U, la.mat_vec(images, pres.generator(i)))
            cols.append([y[t] % p for t in pos])
        mats.append(la.transpose(cols))
    return GammaModule(len(pos), p, mats, layer.order)


def descent_check(layer: GaloisLayer, T_rational: list[int], p: int) -> dict:
    """Equivariant descent: dim RusB_T(K,F_p) equals the Gamma-invariant
    dimension of the Selmer module over L with the orbit-closed modulus.
    Refuses when p divides |Gamma| or T misses a ramified prime."""
    from .selmer import selmer_basis

    if layer.order % p == 0:
        raise FieldError(f"p = {p} divides |Gamma| = {layer.order}; descent needs p coprime to the group order")
    missing = [q for q in layer.ramified_rational_primes() if q not in T_rational]
    if missing:
        raise FieldError(f"T must contain the ramified primes; missing {missing}")
    K, L = layer.K_field, layer.L_field
    T_K = [P for q in sorted(T_rational) for P in K.factor_prime(q)]
    T_L = [P for q in sorted(T_rational) for P in L.factor_prime(q)]
    sbK = selmer_basis(K, T_K, p)
    sbL = selmer_basis(L, T_L, p)
    mod = selmer_module(layer, sbL)
    inv = invariants_dim(mod)
    return {
        "K_dim": sbK.dim,
        "L_invariants_dim": inv,
        "L_dim": sbL.dim,
        "agree": sbK.dim == inv,
        "certified": sbK.certified and sbL.certified,
    }

"""Galois layers and F_p[Gamma]-module bookkeeping.

Automorphisms are explicit polynomial maps theta -> g(theta), validated
by substitution.  Actions on Selmer groups and on kernels of ray class
surjections are expressed as F_p matrices on the carriers' own bases, so
invariants and tensor constructions reduce to plain linear algebra over
F_p.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .selmer import SelmerBasis, _certify_independence, power_residue_class


class Automorphism:
    """theta -> image, an L-automorphism fixing K."""

    def __init__(self, field: NumberField, image: NFElement):
        self.field = field
        self.image = field.elt(image)
        if not poly_eval(field.min_poly, self.image).is_zero():
            raise FieldError("image is not a root of the minimal polynomial")

    def __call__(self, x: NFElement) -> NFElement:
        return poly_eval(self.field.elt(x).power_coords(), self.image)

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.image == other.image

    def __hash__(self):
        return hash(self.image.coords)

    def compose(self, other: "Automorphism") -> "Automorphism":
        # (self o other)(theta) = other's polynomial evaluated at self(theta).
        return Automorphism(self.field, self(other.image))

    def prime_image(self, P: PrimeIdeal) -> PrimeIdeal:
        g = self.second_gen_image(P)
        cands = [Q for Q in self.field.factor_prime(P.q) if not Q.is_unit_at(g)]
        if len(cands) != 1:  # pragma: no cover
            raise FieldError(f"conjugate of {P.label} not identified")
        Q = cands[0]
        assert Q.e == P.e and Q.f_deg == P.f_deg
        return Q

    def second_gen_image(self, P: PrimeIdeal) -> NFElement:
        return self(P.second_generator())


@dataclass
class GaloisLayer:
    K_field: NumberField
    L_field: NumberField
    embedding: NFElement  # image of K's generator in L
    gamma_gens: list[Automorphism]
    elements: list[Automorphism]

    @property
    def order(self) -> int:
        return len(self.elements)

    def prime_orbit(self, P: PrimeIdeal) -> list[PrimeIdeal]:
        out = []
        for g in self.elements:
            Q = g.prime_image(P)
            if all(Q is not R for R in out):
                out.append(Q)
        return sorted(out, key=lambda R: (R.q, R.index))

    def orbit_closure(self, primes: list[PrimeIdeal]) -> list[PrimeIdeal]:
        out: list[PrimeIdeal] = []
        for P in primes:
            for Q in self.prime_orbit(P):
                if all(Q is not R for R in out):
                    out.append(Q)
        return sorted(out, key=lambda R: (R.q, R.index))

    def is_stable(self, primes: list[PrimeIdeal]) -> bool:
        closure = self.orbit_closure(primes)
        return len(closure) == len(primes)

    def ramified_rational_primes(self) -> list[int]:
        out = []
        for q in prime_factors(abs(self.L_field.disc)):
            eL = max(P.e for P in self.L_field.factor_prime(q))
            eK = max(P.e for P in self.K_field.factor_prime(q))
            if eL > eK:
                out.append(q)
        return out


def make_layer(K_field: NumberField, L_field: NumberField, embedding,
               gamma_images: list) -> GaloisLayer:
    emb = L_field.elt(embedding)
    # The embedding must send K's generator to a root of K's polynomial.
    if not poly_eval(K_field.min_poly, emb).is_zero():
        raise FieldError("embedding does not satisfy K's minimal polynomial")
    gens = [Automorphism(L_field, img) for img in gamma_images]
    for g in gens:
        if g(emb) != emb:
            raise FieldError("automorphism does not fix the base field")
    identity = Automorphism(L_field, L_field.theta)
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = g.compose(a)
                if c not in elements:
                    elements.append(c)
                    nxt.append(c)
        frontier = nxt
        if len(elements) > 24:  # pragma: no cover
            raise FieldError("automorphism set does not close at desk scale")
    n = L_field.degree // K_field.degree
    if len(elements) != n:
        raise FieldError(f"expected a group of order {n}, closed at {len(elements)}")
    return GaloisLayer(K_field, L_field, emb, gens, elements)


# ---------------------------------------------------------------------------
# Gamma-modules


@dataclass
class GammaModule:
    dim: int
    p: int
    mats: list[la.FpMatrix]  # one per layer generator
    basis_labels: list[str]
    group_order: int

    def __post_init__(self):
        for m in self.mats:
            if la.fp_rank(m) != self.dim:
                raise ValueError("action matrix is singular")


def trivial_module(p: int, dim: int, n_gens: int, order: int) -> GammaModule:
    eye = la.FpMatrix.from_rows(la.identity(dim), p, cols=dim)
    return GammaModule(dim, p, [eye.copy() for _ in range(n_gens)], [f"e{i}" for i in range(dim)], order)


def gamma_module(p: int, mats: list[list[list[int]]], labels=None, order: int | None = None) -> GammaModule:
    ms = [la.FpMatrix.from_rows(m, p) for m in mats]
    dim = ms[0].rows if ms else 0
    if order is None:
        order = _closure_order(ms, p)
    return GammaModule(dim, p, ms, labels or [f"e{i}" for i in range(dim)], order)


def _mat_mul_fp(a: la.FpMatrix, b: la.FpMatrix) -> la.FpMatrix:
    return la.FpMatrix.from_rows(la.mat_mul(a.entries, b.entries), a.p, b.cols)


def _closure(mats: list[la.FpMatrix], p: int, dim: int) -> list[la.FpMatrix]:
    eye = la.FpMatrix.from_rows(la.identity(dim), p, cols=dim)
    elems = [eye]
    frontier = [eye]
    while frontier:
        nxt = []
        for a in frontier:
            for g in mats:
                c = _mat_mul_fp(g, a)
                if all(c.entries != e.entries for e in elems):
                    elems.append(c)
                    nxt.append(c)
        frontier = nxt
        if len(elems) > 4096:  # pragma: no cover
            raise ValueError("matrix group too large")
    return elems


def _closure_order(mats, p):
    if not mats:
        return 1
    return len(_closure(mats, p, mats[0].rows))


def invariants_dim(m: GammaModule) -> int:
    """dim of the common fixed space; when p does not divide the group
    order, also computed as the rank of the averaging idempotent and
    asserted equal."""
    if m.dim == 0:
        return 0
    p = m.p
    stacked = []
    for g in m.mats:
        for i in range(m.dim):
            stacked.append([(g.entries[i][j] - int(i == j)) % p for j in range(m.dim)])
    if not stacked:
        return m.dim
    ker = la.fp_kernel(la.FpMatrix.from_rows(stacked, p, cols=m.dim))
    d = len(ker)
    if m.group_order % p != 0:
        elems = _closure(m.mats, p, m.dim)
        inv = pow(len(elems), -1, p)
        avg = [[sum(e.entries[i][j] for e in elems) * inv % p for j in range(m.dim)]
               for i in range(m.dim)]
        r = la.fp_rank(la.FpMatrix.from_rows(avg, p, cols=m.dim))
        assert r == d, f"idempotent rank {r} != fixed-space dim {d}"
    return d


def tensor(m1: GammaModule, m2: GammaModule) -> GammaModule:
    if m1.p != m2.p:
        raise ValueError("modulus mismatch")
    if len(m1.mats) != len(m2.mats):
        raise ValueError("generator count mismatch")
    p = m1.p
    mats = []
    for a, b in zip(m1.mats, m2.mats):
        dim = m1.dim * m2.dim
        ent = [[0] * dim for _ in range(dim)]
        for i in range(m1.dim):
            for j in range(m1.dim):
                for k in range(m2.dim):
                    for l in range(m2.dim):
                        ent[i * m2.dim + k][j * m2.dim + l] = (
                            a.entries[i][j] * b.entries[k][l]) % p
        mats.append(la.FpMatrix.from_rows(ent, p, cols=dim))
    labels = [f"{x}*{y}" for x in m1.basis_labels for y in m2.basis_labels]
    return GammaModule(m1.dim * m2.dim, p, mats, labels, m1.group_order)


def dual(m: GammaModule) -> GammaModule:
    """Contragredient action (inverse transpose per generator)."""
    mats = [la.FpMatrix.from_rows(la.transpose(la.fp_inverse(g).entries), m.p, cols=m.dim)
            for g in m.mats]
    return GammaModule(m.dim, m.p, mats, [f"{x}^" for x in m.basis_labels], m.group_order)


# ---------------------------------------------------------------------------
# Induced actions on arithmetic carriers


def selmer_module(layer: GaloisLayer, sb: SelmerBasis) -> GammaModule:
    """Action on the Selmer basis, multiplicatively independent mod
    K^{xp}, resolved through an auxiliary-prime residue matrix."""
    if not layer.is_stable(sb.S):
        raise FieldError("S is not Gamma-stable; take the orbit closure first")
    p, gens = sb.p, sb.generators
    if not gens:
        return trivial_module(p, 0, len(layer.gamma_gens), layer.order)
    ok, aux = _certify_independence(layer.L_field, gens, sb.S, p)
    if not ok:  # pragma: no cover
        raise FieldError("auxiliary primes failed to separate the basis")
    B = la.FpMatrix.from_rows(
        [[power_residue_class(g, P, p) for g in gens] for P in aux],
        p, cols=len(gens))
    mats = []
    for gamma in layer.gamma_gens:
        cols = []
        for g in gens:
            img = gamma(g)
            v = [power_residue_class(img, P, p) for P in aux]
            sol = la.fp_solve(B, v)
            if sol is None:  # pragma: no cover
                raise FieldError("gamma image is not in the carrier span")
            cols.append(sol)
        mats.append(la.FpMatrix.from_rows(la.transpose(cols), p, cols=len(gens)))
    labels = [f"s{i + 1}" for i in range(len(gens))]
    return GammaModule(len(gens), p, mats, labels, layer.order)


def _gen_prime_index(cls, Q):
    for i, P in enumerate(cls.generating_primes):
        if P is Q:
            return i
    raise FieldError(f"conjugate prime {Q.label} is not a class group generator")


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


def rayclass_action_matrix(layer: GaloisLayer, rcd: RayClassData,
                           gamma: Automorphism) -> list[list[int]]:
    """Integer matrix of gamma on the ray class presentation generators
    (columns = images as generator-exponent vectors)."""
    L = layer.L_field
    n = rcd.n_gens
    cols = []
    for j, rg in enumerate(rcd.res_gens):
        target = rg.prime.lift(rg.base)
        primes = [g.prime for g in rcd.res_gens] + [
            P for P in rcd.modulus if all(P is not g.prime for g in rcd.res_gens)]
        pos = next(i for i, P in enumerate(primes) if P is rg.prime)
        x = _crt_lift(L, primes, pos, target)
        assert rg.dlog(x) == 1 % rg.order
        img = gamma(x)
        col = [g.dlog(img) for g in rcd.res_gens]
        col += [0] * len(rcd.class_data.generating_primes)
        cols.append(col)
    for i, P in enumerate(rcd.class_data.generating_primes):
        Q = gamma.prime_image(P)
        col = [0] * n
        col[len(rcd.res_gens) + _gen_prime_index(rcd.class_data, Q)] = 1
        cols.append(col)
    return la.transpose(cols)


def _action_mod_p(pres: la.Presentation, p: int, image) -> la.FpMatrix:
    """F_p matrix on G/pG of the endomorphism of the presented group G that
    sends a generator-exponent vector v to image(v)."""
    pos = pres.p_indices(p)
    cols = []
    for i in pos:
        y = la.mat_vec(pres.U, image(pres.generator(i)))
        cols.append([y[t] % p for t in pos])
    return la.FpMatrix.from_rows(la.transpose(cols), p, cols=len(pos))


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
    t = len(extra)
    mats = []
    for gamma in layer.gamma_gens:
        A = rayclass_action_matrix(layer, big, gamma)
        # Image of each kernel generator (an extra res generator) back in
        # kernel coordinates: solve W e + D y = coords(image).
        img_in_K = []
        for i in extra:
            v = [row[i] for row in A]
            sol = la.solve_integer(lattice, list(big.coords(v)))
            if sol is None:  # pragma: no cover
                raise FieldError("gamma image left the kernel")
            img_in_K.append(sol[:t])
        images = la.transpose(img_in_K)  # column j: image of kernel generator j
        mats.append(_action_mod_p(pres, p, lambda v: la.mat_vec(images, v)))
    return GammaModule(len(pos), p, mats, [f"k{i + 1}" for i in pos], layer.order)


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

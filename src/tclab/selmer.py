"""Selmer groups V_S(K,F_p)/K^{xp} and the two routes to dim RusB_S.

V_emptyset is assembled from units mod p-th powers plus one element alpha
per order-p-divisible class group factor (with (alpha) = a^p).  Local
conditions at the primes of S cut out V_S as an F_p kernel.  The dual
dimension is crosschecked against the ray-class-group formula; a mismatch
between the two routes is a hard error, and that agreement is the main
self-test of the whole package.
"""

from __future__ import annotations

from . import intlinalg as la
from .classunit import class_group, pth_root, solve_relation_element, unit_group
from .numberfield import FieldError, NFElement, NumberField, PrimeIdeal, certify_independence
from .polys import prime_factors
from .rayclass import RayClassData, ray_class_p_part


def power_residue_class(x: NFElement, P: PrimeIdeal, p: int) -> int:
    """Class of x in the F_p quotient of (O/P)^*; 0 iff x is a p-th power
    in the completion at P.  Requires Norm(P) = 1 mod p and v_P(x) = v
    with p | v.  Where the character refuses x (v != 0 or q | den) it
    reads the P-unit y = x t^v s^(pk), integral at q, for t =
    P.inverse_uniformizer and the P-unit s = q t^e, positive at the other
    primes above q: y / x is the global p-th power (t^(v/p) s^k)^p."""
    if (P.norm - 1) % p != 0:
        raise FieldError(f"{P.label} has norm not 1 mod {p}")
    try:
        return P.character(x, p)
    except FieldError:
        if x.is_zero() or (v := P.valuation(x)) % p:
            raise
    t = P.inverse_uniformizer
    s = P.q * t**P.e
    y = x * t**v
    while y.den % P.q == 0:
        y = y * s**p
    return P.character(y, p)


class SelmerBasis:
    __slots__ = ("field", "S", "p", "generators", "local_matrix", "v0_generators",
                 "v0_labels", "kernel_vectors", "certified", "aux_primes", "aux_rows")

    def __init__(self, field: NumberField, S: list[PrimeIdeal], p: int,
                 generators: list[NFElement], local_matrix: la.Matrix,
                 v0_generators: list[NFElement], v0_labels: list[str],
                 kernel_vectors: list[list[int]], certified: bool,
                 aux_primes: list[PrimeIdeal], aux_rows: list[list[int]]):
        self.field = field
        self.S = S
        self.p = p
        self.generators = generators
        self.local_matrix = local_matrix  # rows = V_emptyset gens, cols = conditions
        self.v0_generators = v0_generators
        self.v0_labels = v0_labels
        self.kernel_vectors = kernel_vectors  # exponent vectors over v0_generators
        self.certified = certified
        self.aux_primes = aux_primes
        self.aux_rows = aux_rows  # characters of v0_generators at aux_primes

    @property
    def dim(self) -> int:
        return len(self.generators)

    def verify(self) -> bool:
        """Re-test every generator against the defining conditions from
        scratch: valuations = 0 mod p on the full support, local p-th
        power at each q in S."""
        for g in self.generators:
            for P in _support(self.field, g):
                if P.valuation(g) % self.p != 0:
                    return False
            for P in self.S:
                if (P.norm - 1) % self.p != 0:
                    continue
                if power_residue_class(g, P, self.p) != 0:
                    return False
        return True


def _support(field: NumberField, x: NFElement):
    nrm = x.norm()
    qs = set(prime_factors(abs(nrm.numerator)))
    qs |= set(prime_factors(nrm.denominator))
    qs |= set(prime_factors(x.den))
    out = []
    for q in sorted(qs):
        out.extend(field.factor_prime(q))
    return out


def v_empty_generators(field: NumberField, p: int):
    """Generators of V_emptyset/K^{xp}: units mod p plus one alpha per
    p-divisible class group invariant factor, with (alpha) = a^p."""
    ub = unit_group(field, p)
    cls = class_group(field)
    gens: list[NFElement] = []
    labels: list[str] = []
    for i, u in enumerate(ub.fundamental_units):
        gens.append(u)
        labels.append(f"u{i + 1}")
    if ub.delta_p(p):
        gens.append(ub.torsion_gen)
        labels.append("zeta")
    for i in cls.pres.p_indices(p):
        d = cls.pres.diag[i]
        alpha = solve_relation_element(cls, [d * w for w in cls.pres.generator(i)])
        if alpha is None:  # pragma: no cover
            raise FieldError("class relation lattice inconsistent")
        gens.append(alpha)
        labels.append(f"cl{i + 1}")
    return gens, labels, (ub, cls)


def selmer_basis(field: NumberField, S: list[PrimeIdeal], p: int) -> SelmerBasis:
    for P in S:
        if P.q == p:
            raise FieldError(f"{P.label} is wild at {p}")
    gens, labels, (ub, cls) = v_empty_generators(field, p)
    # Eq-style sanity: dim V_empty must match units + class p-rank.
    r1, r2 = field.signature
    expected = r1 + r2 - 1 + ub.delta_p(p) + cls.group.p_rank(p)
    assert len(gens) == expected
    cond_primes = [P for P in S if (P.norm - 1) % p == 0]
    rows = []
    for g in gens:
        rows.append([power_residue_class(g, P, p) for P in cond_primes])
    # Left kernel: exponent vectors e with e . rows = 0.
    kernel = la.fp_kernel(la.transpose(rows), p, len(gens))
    sel_gens = []
    for vec in kernel:
        x = field.one
        for g, e in zip(gens, vec):
            x = x * g**e
        sel_gens.append(x)
    certified, aux, aux_rows = certify_independence(field, gens, S, p)
    certified = certified and cls.certified and ub.regulator_nonzero_witness
    return SelmerBasis(field, list(S), p, sel_gens, rows, gens, labels,
                       kernel, certified, aux, aux_rows)


def h1_context(rcd: RayClassData) -> dict:
    """The ray-class route to dim RusB_Z for Z the modulus of rcd, built by
    the caller: dim_h1 + delta_p + r - 1 - sum(local_deltas), from the
    p-rank of RCG_Z, mu_p in K, the r infinite places and, per prime of Z,
    whether its norm is 1 mod p."""
    field, p = rcd.field, rcd.p
    dim_h1 = rcd.p_group.p_rank(p)
    delta_p = unit_group(field).delta_p(p)
    r = sum(field.signature)
    local = [1 if (P.norm - 1) % p == 0 else 0 for P in rcd.modulus]
    return {"h1_route_dim": dim_h1 + delta_p + r - 1 - sum(local), "dim_h1": dim_h1,
            "delta_p": delta_p, "r": r, "local_deltas": local}


class CrosscheckError(RuntimeError):
    pass


def compare_rusb(sb: SelmerBasis, rcd: RayClassData) -> dict:
    """The report of both routes to dim RusB_S: the Selmer basis sb and
    the h1_context of rcd, the ray class p-part of the same field, p and
    modulus S.  A disagreement raises CrosscheckError."""
    terms = h1_context(rcd)
    report = {
        "field": sb.field.label or str(sb.field.min_poly),
        "p": sb.p,
        "S": [P.label for P in sb.S],
        "selmer_dim": sb.dim,
        **terms,
        "certified": sb.certified,
        "agree": sb.dim == terms["h1_route_dim"],
    }
    if not report["agree"]:
        raise CrosscheckError(
            f"selmer route gives {sb.dim}, ray-class route gives "
            f"{terms['h1_route_dim']}; full context: {report}; "
            f"v0 generators: {[g.coords for g in sb.v0_generators]}; "
            f"local matrix: {sb.local_matrix}"
        )
    return report


def crosscheck_rusb(field: NumberField, S: list[PrimeIdeal], p: int) -> dict:
    """compare_rusb on the Selmer basis of S, built first, and RCG_S."""
    sb = selmer_basis(field, S, p)
    return compare_rusb(sb, ray_class_p_part(field, S, p))


# ---------------------------------------------------------------------------
# p = 2 exceptionality


class ExceptionalityReport:
    __slots__ = ("field", "S", "condition_a", "witness_a", "condition_b", "witness_b",
                 "condition_c", "per_prime_c")

    def __init__(self, field: NumberField, S: list[PrimeIdeal], condition_a: bool,
                 witness_a: NFElement | None, condition_b: bool,
                 witness_b: NFElement | None, condition_c: bool,
                 per_prime_c: list[tuple[str, bool]]):
        self.field = field
        self.S = S
        self.condition_a = condition_a  # zeta_4 not in K
        self.witness_a = witness_a  # a root of x^2 + 1 when condition_a fails
        self.condition_b = condition_b  # unit of the form -4 a^4 exists
        self.witness_b = witness_b
        self.condition_c = condition_c
        self.per_prime_c = per_prime_c

    @property
    def exceptional(self) -> bool:
        return self.condition_a and self.condition_b and self.condition_c


def is_exceptional(field: NumberField, S: list[PrimeIdeal]) -> ExceptionalityReport:
    for P in S:
        if P.q == 2:
            raise FieldError(f"{P.label} is wild at 2")
    root = pth_root(field.elt(-1), 2)
    cond_a = root is None
    cond_b, wit_b = _unit_minus_four_fourth(field)
    bits = [(P.label, (P.norm - 1) % 4 == 0) for P in S]
    cond_c = all(b for _, b in bits)
    return ExceptionalityReport(field, list(S), cond_a, root, cond_b, wit_b,
                                cond_c, bits)


def _unit_minus_four_fourth(field: NumberField):
    """Does O_K^* meet -4 K^4?  Equivalent to -u/4 being a fourth power
    for some unit u taken over a transversal of U/U^4."""
    ub = unit_group(field)
    reps = [field.one]
    for u in ub.fundamental_units:
        reps = [r * u**e for r in reps for e in range(4)]
    for te in range(ub.torsion_order):
        for r in reps:
            u = r * ub.torsion_gen**te
            target = u * field.elt(-1) / field.elt(4)
            half = pth_root(target, 2)
            if half is None:
                continue
            for cand in (half, -half):
                a = pth_root(cand, 2)
                if a is not None:
                    assert a**4 * field.elt(-4) == u
                    return True, a
    return False, None

"""Ray class groups with tame finite modulus, p-primary parts.

The group of conductor m = prod q_j is presented on the p-parts of the
residue groups (O/q_j)^*, each read as Z/p^a through q_j's tame
character of order p^a, together with the class group generators.
Relations: the residue orders, the images of a generating set of global
units, and the class group relations corrected by the residue classes of
their principal generators.  The cokernel of that presentation agrees
with the ray class group up to prime-to-p noise, so its p-primary part is
exactly the p-primary part of the ray class group.
"""

from __future__ import annotations

from . import intlinalg as la
from .classunit import ClassGroupData, class_group, unit_group
from .numberfield import FieldError, NumberField, PrimeIdeal


def p_part_order(P: PrimeIdeal, p: int) -> int:
    """p^a with p^a || Norm(P) - 1.  Requires P tame at p."""
    if P.q == p:
        raise FieldError(f"{P.label} is wild at {p}")
    n = P.norm - 1
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return p**a


class RayClassData:
    __slots__ = ("field", "p", "modulus", "res_gens", "class_data", "relation_rows",
                 "group", "p_group", "pres")

    def __init__(self, field: NumberField, p: int, modulus: list[PrimeIdeal],
                 res_gens: list[tuple[PrimeIdeal, int]], class_data: ClassGroupData,
                 relation_rows: list[list[int]], group: la.FinAbGroup,
                 p_group: la.FinAbGroup, pres: la.Presentation):
        self.field = field
        self.p = p
        self.modulus = modulus
        self.res_gens = res_gens  # (P, p^a) for the modulus primes with p | N(P) - 1
        self.class_data = class_data
        self.relation_rows = relation_rows
        self.group = group  # full cokernel (p-primary part is the RCG's)
        self.p_group = p_group
        self.pres = pres  # the cokernel of relation_rows


def ray_class_p_part(field: NumberField, modulus: list[PrimeIdeal], p: int) -> RayClassData:
    for P in modulus:
        if P.q == p:
            raise FieldError(f"modulus prime {P.label} is wild at {p}")
    if len({P.label for P in modulus}) < len(modulus):
        raise FieldError("a prime repeats in the modulus; a tame modulus is squarefree")
    cls = class_group(field)
    for P in cls.generating_primes:
        if any(Q.q == P.q and Q.index == P.index for Q in modulus):
            raise FieldError(
                f"class group generator {P.label} divides the modulus; "
                "choose a modulus away from the small primes"
            )
    res_gens = [(P, pa) for P in modulus if (pa := p_part_order(P, p)) > 1]
    s = len(res_gens)
    k = len(cls.generating_primes)
    rows: list[list[int]] = []
    for j, (_, pa) in enumerate(res_gens):
        row = [0] * (s + k)
        row[j] = pa
        rows.append(row)
    ub = unit_group(field, p)
    for u in [ub.torsion_gen] + ub.fundamental_units:
        rows.append([P.character(u, pa) for P, pa in res_gens] + [0] * k)
    for rel, gamma in zip(cls.relation_matrix, cls.relation_elements):
        rows.append([-P.character(gamma, pa) for P, pa in res_gens] + list(rel))
    pres = la.present(rows, s + k)
    return RayClassData(field, p, list(modulus), res_gens, cls, rows,
                        pres.group, pres.group.p_primary(p), pres)


def kernel_presentation(big: RayClassData, small: RayClassData):
    """ker(RCG_V ->> RCG_T) as a subgroup of big's cokernel, where small's
    modulus is a subset of big's.  The kernel is generated by the residue
    generators at the extra primes.  Returns (extra, lattice, pres):
    extra indexes those generators in big.res_gens, the integer kernel of
    lattice = [W | diag(orders)] (W's column j holding the coordinates of
    the j-th extra generator) gives the relations among them, and pres
    presents the kernel on them."""
    if big.field is not small.field or big.p != small.p:
        raise ValueError("mismatched ray class data")
    small_labels = {P.label for P in small.modulus}
    if not small_labels <= {P.label for P in big.modulus}:
        raise ValueError("small modulus is not contained in the big one")
    extra = [i for i, (P, _) in enumerate(big.res_gens) if P.label not in small_labels]
    orders = big.pres.orders
    t, r = len(extra), len(orders)
    W = [big.pres.coords([int(j == i) for j in range(len(big.pres.diag))]) for i in extra]
    lattice = [[W[j][i] for j in range(t)] + [orders[i] if c == i else 0 for c in range(r)]
               for i in range(r)]
    rel_rows = [vec[:t] for vec in la.integer_kernel(lattice, t + r)]
    return extra, lattice, la.present(rel_rows, t)


def rcg_surjection_kernel(big: RayClassData, small: RayClassData) -> la.FinAbGroup:
    """Structure of ker(RCG_V ->> RCG_T) restricted to p-primary parts,
    where small's modulus is a subset of big's; a p-group."""
    extra, _, pres = kernel_presentation(big, small)
    if not extra:
        return la.FinAbGroup()
    expected = big.group.order() // small.group.order()
    if pres.group.order() != expected:
        raise FieldError("kernel order mismatch; presentations inconsistent")
    return pres.group.p_primary(big.p)

"""Class groups and unit groups at desk scale, certified unconditionally.

The class group is computed on the prime ideals of norm up to the
Minkowski bound.  Relations come from explicit principal generators.  The
classes those primes generate are enumerated by Shanks' baby steps, which
find every relation: in a quadratic field by composing and reducing
binary quadratic forms and looking each class up by its key, in other
fields by a principality test against each class found so far.
Principality of an ideal in a quadratic field is decided exactly
through binary quadratic forms (Gauss reduction in the definite case,
reduction cycles in the indefinite case).  In a totally real field
of degree >= 3 it is decided by enumerating the ideal's points of T2 =
Tr(x^2) up to a radius that provably holds a generator when there is one:
Fincke-Pohst over an LLL-reduced basis, with the radius an exact
rational bound read off the units' embedding enclosures.  The units of
such a field come from the same walk over T2 shells (_t2_shells), on O
itself: the smallest units whose independence certified_log_rank proves
by tame characters, then saturated.  So no GRH and no floating point
enter the certified path: float logs only filter unit candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, product
from operator import itemgetter, mul

from . import intlinalg as la
from . import polys
from .embeddings import certified_log_rank
from .numberfield import (
    FieldError,
    NFElement,
    NumberField,
    PrimeIdeal,
    lattice_mul,
    lattice_norm,
    quadratic_trace_norm,
)


class CertificationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Units


class UnitBasis:
    def __init__(self, field: NumberField, torsion_order: int, torsion_gen: NFElement,
                 fundamental_units: list[NFElement], saturated_at: tuple[int, ...],
                 regulator_nonzero_witness: bool):
        self.field = field
        self.torsion_order = torsion_order
        self.torsion_gen = torsion_gen
        self.fundamental_units = fundamental_units
        self.saturated_at = saturated_at
        self.regulator_nonzero_witness = regulator_nonzero_witness

    @property
    def rank(self) -> int:
        return len(self.fundamental_units)

    def delta_p(self, p: int) -> int:
        """1 iff the p-th roots of unity lie in the field."""
        return 1 if self.torsion_order % p == 0 else 0

    @cached_property
    def t2_spread(self) -> Fraction:
        """An upper bound for sum_i exp(sum_j |log|sigma_i(u_j)||) over the
        real embeddings sigma_i and the fundamental units u_j: the unit
        part of _principal_by_t2's radius, which only the N(I)^(2/n) scale
        of the ideal joins.  exp|log a| = max(a, 1/a), which on an
        enclosure [a, b] of |sigma_i(u_j)|, 0 < a, is at most max(b, 1/a):
        the bound is exact rational arithmetic on the enclosures."""
        emb = self.field.embeddings
        bounds = []
        for u in self.fundamental_units:
            emb.element_signs(u)  # refines until no enclosure contains 0
            bounds.append([max(hi, 1 / lo) if lo > 0 else max(-lo, -1 / hi)
                           for lo, hi in emb.element_intervals(u)])
        return sum(math.prod(row[i] for row in bounds) for i in range(self.field.degree))


class UnitRankError(RuntimeError):
    def __init__(self, wanted: int, achieved: int):
        super().__init__(f"unit rank {wanted} not reached (achieved {achieved})")
        self.wanted = wanted
        self.achieved = achieved


def unit_group(field: NumberField, p: int | None = None) -> UnitBasis:
    """Torsion and independent units, saturated at 2, 3, 5 and p.  The
    cached group is reused, and saturated at p alone when it is not yet:
    each root taken enlarges the unit lattice by index p, which keeps the
    units independent and saturated at the primes done before (see
    _saturate).  The T2 walk certifies the units it returns, so their
    independence is certified again only when saturation took a root."""
    saturate_at = tuple(sorted({2, 3, 5, p} - {None}))
    cached = field._unit_cache
    if cached is not None:
        new = sorted(set(saturate_at) - set(cached.saturated_at))
        if new:
            cached = field._unit_cache = UnitBasis(
                field, cached.torsion_order, cached.torsion_gen,
                _saturate(field, cached.fundamental_units, new),
                tuple(sorted(cached.saturated_at + tuple(new))),
                cached.regulator_nonzero_witness)
        return cached
    r1, r2 = field.signature
    if r2 and field.degree >= 3:
        # Neither the torsion nor the p-th roots that saturation needs are
        # computed at complex places beyond imaginary quadratic fields.
        raise NotImplementedError(
            f"unit groups of degree-{field.degree} fields with complex places "
            f"(mixed-signature or totally complex) are out of scope")
    rank = r1 + r2 - 1
    w, tgen = _torsion(field)
    if rank == 0:
        ub = UnitBasis(field, w, tgen, [], saturate_at, True)
    elif field.degree == 2 and r1 == 2:
        u = _real_quadratic_fundamental(field)
        ub = UnitBasis(field, w, tgen, [u], saturate_at, True)
    else:
        walked = _unit_system_by_t2(field, rank)
        units = _saturate(field, walked, saturate_at)
        witness = units == walked or certified_log_rank(field, units)
        if not witness:
            raise UnitRankError(rank, 0)
        ub = UnitBasis(field, w, tgen, units, saturate_at, witness)
    for u in ub.fundamental_units:
        assert abs(u.norm()) == 1
    field._unit_cache = ub
    return ub


def _torsion(field: NumberField) -> tuple[int, NFElement]:
    if field.signature[0] > 0 or field.disc not in (-3, -4):
        return 2, field.elt(-1)
    # Q(i) or Q(sqrt -3) (unit_group refuses the other fields with complex
    # places).  With t = Tr omega, s = 2 omega - t squares to disc, so the
    # roots of unity of exact order w are +-s/2 (w = 4) and (1 +- s)/2
    # (w = 6), i.e. (c - e t)/2 + e omega for e = +-1; take the one with
    # the least coordinates.
    t, _ = quadratic_trace_norm(field)
    w, c = (4, 0) if field.disc == -4 else (6, 1)
    x = field.elt(min([Fraction(c - e * t, 2), e] for e in (1, -1)))
    # x is not rational and x^(w/2) = -1, so its order is exactly w.
    assert x**(w // 2) == -field.one
    return w, x


def _real_quadratic_fundamental(field: NumberField) -> NFElement:
    """Fundamental unit (x + y sqrt(D))/2 with x, y > 0.  The walk on the
    reduction cycle of O ends at the first form with |a| = 1 after its
    first reduced one.  Both are reduced, so their generators are
    successive unit minima of O, which differ by eps or 1/eps (Cohen,
    GTM 138, 5.7)."""
    *_, g0, g1 = _cycle_generators(field, la.identity(2))
    u = g1 / g0
    # u = a + b omega = (x + y sqrt(D))/2 with x = 2a + bt, y = b, where
    # t = Tr(omega); +-u and its conjugate only flip the signs of x and y.
    t, _ = quadratic_trace_norm(field)
    a, b = u.nums
    x, y = abs(2 * a + b * t), abs(b)
    return field.elt([(x - y * t) // 2, y])


def _unit_system_by_t2(field: NumberField, rank: int) -> list[NFElement]:
    """rank independent units of a totally real field of degree >= 3, the
    smallest the T2 shells of O offer: walked from radius 2n (T2 = n only
    at +-1, by AM-GM), each shell in increasing T2, with the norm of a
    point tested only when the walk reaches it.  A candidate whose log
    vector is nearly dependent on those of the units chosen so far (float
    Gram determinant below 1e-6, by Gram-Schmidt) is skipped; the float
    logs only filter, and certified_log_rank proves each choice.  Every
    shell is finite and the unit group has rank `rank`, so the walk ends."""
    n = field.degree
    units: list[NFElement] = []
    ortho: list[list[float]] = []  # Gram-Schmidt basis of the chosen logs
    gram_det = 1.0
    has_norm, element, shells = _t2_shells(field, la.identity(n), 1, 2 * n)
    for shell in shells:
        for _, x in sorted(shell, key=itemgetter(0)):
            if not has_norm(x):
                continue
            u = element(x)
            if _is_torsion(field, u):
                continue
            v = _float_logs(field, u)
            for w in ortho:
                c = _dot(v, w) / _dot(w, w)
                v = [a - c * b for a, b in zip(v, w)]
            det = gram_det * _dot(v, v)
            if det < 1e-6 or not certified_log_rank(field, units + [u]):
                continue
            units.append(u)
            ortho.append(v)
            gram_det = det
            if len(units) == rank:
                return units


def _is_torsion(field: NumberField, x: NFElement) -> bool:
    """Its callers only see totally real fields of degree >= 3, whose roots
    of unity are +-1 (see _torsion)."""
    return x == field.one or x == -field.one


def _float_logs(field: NumberField, u: NFElement) -> list[float]:
    """log|sigma_i(u)| at the midpoints of enclosures of width 2^-40 of
    the real embeddings, which exclude 0: a float guess, not a proof."""
    emb = field.embeddings
    emb.element_signs(u)  # refines until no enclosure contains 0
    mids = [abs(lo + hi) / 2 for lo, hi in emb.element_intervals(u, Fraction(1, 2**40))]
    return [math.log(m.numerator) - math.log(m.denominator) for m in mids]


def _dot(v, w) -> float:
    return sum(map(mul, v, w))


def _saturate(field: NumberField, units, primes):
    """Saturate the unit system at each p of primes in turn, taking p-th
    roots until none is left.  Each root enlarges the unit lattice by
    index p, which keeps it saturated at the primes already done, so one
    pass over primes suffices."""
    units = list(units)
    for p in primes:
        while (found := _pth_root_of_product(field, units, p)) is not None:
            i, root = found
            units[i] = root
    return units


_SATURATION_LINES = 20_000


def _pth_root_of_product(field: NumberField, units, p: int):
    """(i, r) for the first nonzero exponent vector e in [0, p)^r, in
    product order, with r^p = +-prod u^e for some r other than +-1; i is
    the position of e's first nonzero entry.  The vectors with such an r
    form a subspace of F_p^r: with c e in it, e = c^-1 (c e) is in it and
    comes first in product order.  So only the (p^r - 1)/(p - 1) vectors
    whose first nonzero entry is 1, one per line, are tried, the first hit
    is unchanged, and putting r in place of units[i] enlarges the unit
    lattice by index p.  None if no e has one.  For odd p, -1 = (-1)^p, so
    -prod u^e has a p-th root exactly when prod u^e has one, and only the
    latter is tried.  More than _SATURATION_LINES lines is refused with
    CertificationError before any power is built."""
    lines = (p ** len(units) - 1) // (p - 1)
    if lines > _SATURATION_LINES:
        raise CertificationError(f"saturation at p = {p} would try {lines} exponent vectors")
    powers = [list(accumulate([u] * (p - 1), mul)) for u in units]  # u, ..., u^(p-1)
    # In product order, the later the leading 1, the earlier the vector.
    for i in reversed(range(len(units))):
        for rest in product(range(p), repeat=len(units) - 1 - i):
            cand = reduce(mul, [pw[e - 1] for pw, e in zip(powers[i + 1:], rest) if e], units[i])
            for x in (cand, -cand) if p == 2 else (cand,):
                root = pth_root(x, p)
                if root is not None and not _is_torsion(field, root):
                    return i, root
    return None


def pth_root(x: NFElement, p: int) -> NFElement | None:
    """Exact p-th root of x in the field, or None.  x must be nonzero.

    A residue witness answers None first where it can: a prime P of
    degree 1 above a rational prime q = 1 (mod p) with x mod P = r != 0 and
    r^((q-1)/p) != 1 (mod q).  A p-th power y^p reduces to s^p with
    s^(q-1) = 1 there, so the witness proves that x has no p-th root.
    The primes come from NumberField.degree_one_primes, the roots of f
    mod q, so no prime is factored.  Without a witness among the first
    _WITNESS_TESTS such primes, the root is sought in integers and
    checked exactly."""
    field = x.field
    if x.is_zero():
        raise FieldError("p-th root of zero")
    if _residue_witness(x, p):
        return None
    r1, r2 = field.signature
    if r2 == 0:
        return _pth_root_totally_real(x, p)
    if field.degree == 2 and r1 == 0:
        return _pth_root_imag_quadratic(x, p)
    raise NotImplementedError("p-th roots for mixed-signature fields")


_WITNESS_TESTS = 8


def _residue_witness(x: NFElement, p: int) -> bool:
    """True if a prime P of degree 1 shows that x is not a p-th power (see
    pth_root).  P runs over NumberField.degree_one_primes(p), the primes
    of degree 1 above q = 1 (mod p) with q prime to disc(f), in increasing
    q and then root, skipping q that divide the denominator of x; the
    search gives up after _WITNESS_TESTS of them."""
    tests = 0
    for P in x.field.degree_one_primes(p):
        q = P.q
        if x.den % q == 0:
            continue
        r = P.residue(x)
        if r and pow(r, (q - 1) // p, q) != 1:
            return True
        tests += 1
        if tests == _WITNESS_TESTS:
            return False


def _floor_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for an integer m >= 0."""
    if m < 2:
        return m
    # Newton's iteration from above, starting at 2^ceil(bits/k) >= m^(1/k),
    # decreases to floor(m^(1/k)).
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _iroot(m: int, k: int) -> int | None:
    """The integer k-th root of m >= 0 if m is a k-th power, else None."""
    r = _floor_root(m, k)
    return r if r**k == m else None


def _pth_root_totally_real(x: NFElement, p: int) -> NFElement | None:
    field = x.field
    emb = field.embeddings
    signs = emb.element_signs(x)
    if p % 2 == 0 and any(s < 0 for s in signs):
        return None
    den = x.den
    n = field.degree
    # A p-th root moves by at most d^(1/p) when its argument moves by d,
    # so enclosing each conjugate of x to within (2^8 den)^-p puts den
    # times the root's coordinates within rounding distance.  The
    # coefficients of x, below 2^bits, magnify the error of each theta_i.
    bits = max(abs(c.numerator).bit_length() + c.denominator.bit_length()
               for c in x.power_coords())
    prec = max(80, bits + p * (den.bit_length() + 8))
    # In units of 2^-prec, from the midpoints of the enclosures:
    # mags[i] = |sigma_i(x)|^(1/p) and conj[j][i] = sigma_i(b_j).
    ivs = emb.element_intervals(x, Fraction(1, 2**prec))
    mags = [_floor_root(math.floor(abs(lo + hi) * 2 ** (p * prec - 1)), p) for lo, hi in ivs]
    conj = [[math.floor((lo + hi) * 2 ** (prec - 1)) for lo, hi in emb.element_intervals(b)]
            for b in map(field.elt, la.identity(n))]
    # For odd p the root tracks the sign of x at each embedding; for
    # even p any sign pattern is possible, so try them all (up to a
    # global sign).  The root z, sigma_i(z) = pat[i] mags[i], has
    # coordinates c with G c = (Tr(z b_j))_j, G the exact trace form,
    # and rhs is that right side in units of 2^(-2 prec).
    if p % 2:
        patterns = [tuple(1 if s >= 0 else -1 for s in signs)]
    else:
        patterns = [(1,) + rest for rest in product((1, -1), repeat=n - 1)]
    for pat in patterns:
        rhs = [sum(s * m * c for s, m, c in zip(pat, mags, row)) for row in conj]
        sol, d = la.bareiss_solve(field.trace_form, rhs)
        cand = field.elt([Fraction(round(Fraction(den * v, d << 2 * prec)), den) for v in sol])
        if cand**p == x:
            return cand
    return None


def _pth_root_imag_quadratic(x: NFElement, p: int) -> NFElement | None:
    """The root with the least omega-coordinate (then the greatest
    1-coordinate) among the p-th roots of x, or None.  A root z of
    y = den^p x has norm m = N(y)^(1/p) and a trace s with s^2 <= 4m that
    solves V_p(s) = Tr y, V the Lucas sequence z^k + zbar^k: V_0 = 2,
    V_1 = S, V_(k+1) = S V_k - m V_(k-1).  With omega = (t + sqrt D)/2,
    z = u + v omega has s = 2u + tv and v^2 = (4m - s^2)/|D|."""
    field = x.field
    den = x.den
    y = x * (den**p)
    if (m := _iroot(int(y.norm()), p)) is None:
        return None
    prev, lucas = (2,), (0, 1)
    for _ in range(p - 1):
        prev, lucas = lucas, polys.poly_sub((0,) + lucas, tuple(m * c for c in prev))
    g = polys.squarefree_part(polys.poly_sub(lucas, (int(y.trace()),)))
    t, _ = quadratic_trace_norm(field)
    roots = []
    for s in polys.integer_roots(g, polys.real_root_cells(g, _floor_root(4 * m, 2) + 1)):
        q, r = divmod(4 * m - s * s, -field.disc)
        if r or (w := _iroot(q, 2)) is None:
            continue
        for v in {w, -w}:
            u, odd = divmod(s - t * v, 2)
            if not odd and (cand := field.elt([u, v]))**p == y:
                roots.append(cand)
    return min(roots, key=lambda z: (z.nums[1], -z.nums[0])) / den if roots else None


# ---------------------------------------------------------------------------
# Principality testing via binary quadratic forms (quadratic fields)


def ideal_form(field: NumberField, lat) -> tuple[int, int, int]:
    """Integral binary quadratic form N(s v1 + t v2)/N(I) for a rank-2
    ideal lattice with HNF column basis (v1, v2), read off the norm form
    N(x + y omega) = x^2 + T x y + N y^2, T and N the trace and norm of
    omega."""
    T, N = quadratic_trace_norm(field)
    (p, r), (q, s) = lat  # v1 = p + q omega, v2 = r + s omega
    nI = lattice_norm(lat)
    a = p * p + T * p * q + N * q * q
    b = 2 * p * r + T * (p * s + q * r) + 2 * N * q * s
    c = r * r + T * r * s + N * s * s
    assert a % nI == b % nI == c % nI == 0
    return a // nI, b // nI, c // nI


def principal_generator(field: NumberField, lat) -> NFElement | None:
    """A generator of the ideal lattice if principal, else None.  Exact in
    every field it accepts, so None proves the ideal is not principal:

    - imaginary quadratic: Gauss reduction of the ideal form f with its
      SL2(Z) transform [[p, q], [r, s]].  Reduced forms are unique in
      their proper class, so I is principal iff the reduced form is the
      principal one, i.e. has a = 1; then f(p, r) = 1 for the first
      column (p, r), and p v1 + r v2 has norm N(I): a generator.  The
      candidate is accepted only if it lies in the lattice and has |N| =
      N(I), else CertificationError;
    - real quadratic: the form's reduction cycle (_cycle_generators);
    - totally real of degree >= 3: an enumeration of the ideal's points
      up to a proven T2 radius (_principal_by_t2)."""
    if field.degree == 1:
        return field.elt(lattice_norm(lat))
    if field.degree == 2:
        if field.disc < 0:
            return _principal_imag(field, lat)
        return next(_cycle_generators(field, lat), None)
    return _principal_by_t2(field, lat)


def _principal_imag(field: NumberField, lat) -> NFElement | None:
    form, (p, _, r, _) = _reduce_definite(ideal_form(field, lat))
    if form[0] != 1:
        return None
    g = field.elt(la.mat_vec(lat, [p, r]))
    if (la.solve_integer(lat, list(g.nums)) is None
            or abs(g.norm()) != lattice_norm(lat)):
        raise CertificationError(f"reduced ideal form {form} gave no generator")
    return g


def _reduce_definite(form):
    """Gauss reduction of a positive definite form f: the reduced form
    (|b| <= a <= c, and b >= 0 if |b| = a or a = c) properly equivalent
    to f, and the SL2(Z) transform t = [[p, q], [r, s]] with f o t that
    form, as (p, q, r, s)."""
    a, b, c = form
    p, q, r, s = 1, 0, 0, 1
    while True:
        # (x, y) -> (x + k y, y) takes b to b + 2ak, into (-a, a].
        k = (a - b) // (2 * a)
        if k:
            b, c = b + 2 * a * k, c + k * (b + a * k)
            q += k * p
            s += k * r
        if a < c or (a == c and b >= 0):
            return (a, b, c), (p, q, r, s)
        # (x, y) -> (-y, x) takes (a, b, c) to (c, -b, a).
        a, b, c = c, -b, a
        p, q, r, s = q, -p, s, -r


def _cycle_generators(field: NumberField, lat):
    """Generators of a real quadratic ideal lattice, read off its form's
    reduction cycle.  The tracked SL2(Z) transform t = [[p, q], [r, s]]
    carries the ideal form f to f o t, so at each form with leading
    coefficient +-1 its first column (p, r) gives p v1 + r v2 of norm
    +-N(I): a generator.  The ideal is principal iff one turns up before
    a reduced form repeats, which ends the walk; but once the walk has
    passed a reduced form with |a| = 1, it ends at the next form with
    |a| = 1.  A form (a, b, c) is reduced when 0 < b <= isqrt(D) and
    isqrt(D) - 2|a| < b."""
    form = ideal_form(field, lat)
    D = field.disc
    assert form[1] ** 2 - 4 * form[0] * form[2] == D
    root = math.isqrt(D)
    (v11, v12), (v21, v22) = lat
    p, q, r, s = 1, 0, 0, 1
    seen, on_cycle = set(), False
    while True:
        a, b, _ = form
        reduced = 0 < b <= root and root - 2 * abs(a) < b
        if a == 1 or a == -1:
            yield field.elt([v11 * p + v12 * r, v21 * p + v22 * r])
            if on_cycle:
                return
            on_cycle = reduced
        elif reduced and not on_cycle:
            if form in seen:
                return
            seen.add(form)
        form, k = _rho_step(form, D, root)
        # rho corresponds to right-multiplication by [[0, -1], [1, k]].
        p, q, r, s = q, k * q - p, s, k * s - r


def _rho_step(form, D, root):
    """rho(f) of an indefinite form f (Cohen, GTM 138, section 5.6) and the
    k of its transform [[0, -1], [1, k]], given root = isqrt(D)."""
    a, b, c = form
    ac = abs(c)
    lo = -ac if ac > root else root - 2 * ac
    # r = -b + 2*c*k with lo < r <= lo + 2|c|
    r = lo + 1 + (-b - lo - 1) % (2 * ac)
    k = (b + r) // (2 * c)
    return (c, r, (r * r - D) // (4 * c)), k


def _principal_by_t2(field: NumberField, lat) -> NFElement | None:
    """A generator of the ideal lattice of a totally real field, or None
    after an enumeration that proves there is none.

    An element x of the ideal I with |N(x)| = N(I) generates I.  If I =
    (alpha), multiplying alpha by units moves its log vector by the unit
    log lattice, so some generator has log vector (log N(I))/n + sum_j c_j
    L(u_j) with |c_j| <= 1/2, for any independent units u_j, and hence
    T2 <= R = N(I)^(2/n) sum_i exp(sum_j |log|sigma_i(u_j)||).  The T2
    shells of I are walked from C, the least integer above n N(I)^(2/n)
    (no element of norm N(I) has smaller T2, by AM-GM), up to R itself,
    and the first element of norm N(I) found is returned."""
    ub = unit_group(field)  # refuses fields with complex places
    N = lattice_norm(lat)
    radius, last = _t2_radii(ub, N)
    has_norm, element, shells = _t2_shells(field, lat, N, radius, last)
    return next((element(x) for shell in shells for _, x in shell if has_norm(x)), None)


def _t2_shells(field: NumberField, lat, N: int, radius: int, last: int | None = None):
    """(has_norm, element, shells) for the ideal lattice lat of a totally
    real field.  shells yields, shell by shell, the list of (T2(x), x) for
    every point x, up to sign, with T2 in (0, r] for r = radius, then in
    (r, 4r], and so on, each in Fincke-Pohst order over an LLL-reduced
    basis (Fincke & Pohst, Math. Comp. 44, 1985).  The radii are capped at
    last, and the walk stops after the shell that ends there; without last
    it never stops.  has_norm(x) says whether |N(x)| = N, and element(x)
    is the field element of x; the callers test norms only as far as they
    read the points."""
    gram, T = la.lll(la.mat_mul(la.mat_mul(la.transpose(lat), field.trace_form), lat))
    basis = la.mat_mul(lat, T)
    # The point x has the integer multiplication matrix sum_k x_k M_k, for
    # M_k that of the k-th reduced basis vector, and its norm is the
    # determinant; entry (i, j) of the sum is x . mults[i][j].
    Ms = [field._mult_matrix(col) for col in zip(*basis)]
    mults = [list(zip(*(M[i] for M in Ms))) for i in range(len(gram))]

    def has_norm(x) -> bool:
        return abs(la.det([[sum(map(mul, x, e)) for e in row] for row in mults])) == N

    def element(x) -> NFElement:
        return field.elt(la.mat_vec(basis, x))

    def shells(radius):
        done = 0  # every point with T2 <= done has been listed
        while True:
            if last is not None:
                radius = min(radius, last)
            yield [(t2, x) for x, t2 in la.fincke_pohst(gram, radius) if t2 > done]
            if radius == last:
                return
            done, radius = radius, 4 * radius

    return has_norm, element, shells(radius)


def _t2_radii(ub: UnitBasis, N: int) -> tuple[int, int]:
    """The least integers above n N^(2/n) and above R = N^(2/n) t2_spread,
    for the T2 enumeration of _principal_by_t2: R bounds the least T2 of a
    generator of any principal ideal of norm N.  For rational c > 0, an
    integer m exceeds c N^(2/n) iff m^n exceeds c^n N^2, so iff it exceeds
    the integer floor(c^n N^2): the least such m is one more than that
    integer's floor n-th root."""
    n = ub.field.degree
    return tuple(_floor_root(c.numerator**n * N**2 // c.denominator**n, n) + 1
                 for c in (Fraction(n), ub.t2_spread))


# ---------------------------------------------------------------------------
# Class group


class ClassGroupData:
    __slots__ = ("field", "group", "generating_primes", "relation_matrix",
                 "relation_elements", "certified", "pres")

    def __init__(self, field: NumberField, group: la.FinAbGroup,
                 generating_primes: list[PrimeIdeal], relation_matrix: list[list[int]],
                 relation_elements: list[NFElement], certified: bool,
                 pres: la.Presentation):
        self.field = field
        self.group = group
        self.generating_primes = generating_primes
        self.relation_matrix = relation_matrix  # rows = relations on generating_primes
        self.relation_elements = relation_elements  # generator of prod P^row
        self.certified = certified
        self.pres = pres  # the cokernel of relation_matrix

    def p_rank(self, p: int) -> int:
        return self.group.p_rank(p)


def class_group(field: NumberField) -> ClassGroupData:
    """The class group on the primes of norm up to the Minkowski bound,
    which generate it, with a generator of the principal ideal behind each
    relation.

    _relations enumerates the classes those primes generate, which finds
    the whole relation lattice, so the result is certified by
    construction; the count of classes enumerated must equal the order of
    the group the relations present, else CertificationError."""
    if field._class_cache is not None:
        return field._class_cache
    gens = field.primes_of_norm_up_to(field.minkowski_bound())
    rows, elements, size = _relations(field, gens)
    pres = la.present(rows, len(gens))
    if pres.group.order() != size:
        raise CertificationError(f"{size} classes enumerated, relations give {pres.group.order()}")
    data = ClassGroupData(field, pres.group, gens, rows, elements, True, pres)
    field._class_cache = data
    return data


def _relations(field: NumberField, gens):
    """(rows, elements, size): rows that span the whole relation lattice of
    the primes gens, a generator of prod P_j^row_j for each row, and the
    number of classes gens generate, by enumerating those classes (Shanks'
    baby steps; Cohen, GTM 138, sections 5.4-5.6).

    The table maps a handle of each class of H_i = <P_1, ..., P_i> to an
    exponent vector of it on P_1..P_i, from H_0 = {principal}.  e_i is the
    least e >= 1 such that P_i^e h is principal for some h in the table,
    at v: then P_i^e_i prod_j P_j^v_j is principal, the i-th row, and H_i
    is the disjoint union of the cosets P_i^j H_(i-1), 0 <= j < e_i.  The
    rows are triangular with diagonal e_i, so their lattice has index
    prod e_i = |H_k| in Z^k.  The primes generate the class group, so that
    is also the index of the relation lattice, which contains the rows:
    they span it.

    Only the handles and the principality test differ by degree:

    - quadratic: the handle is the key of the ideal form (_class_key),
      products are composed forms, and the h with P^e h principal is the
      one keyed by the inverse (a, -b, c) of P^e, a dict lookup; the row's
      element is then principal_generator of its power product, whose
      prime squares P_j^(2^t) come from one dict per enumeration.  For
      D > 0 all keys of one enumeration share one dict of the forms their
      rho-walks met, so no form is walked twice;
    - other degrees: the handle is the ideal's HNF lattice, as a tuple of
      rows, and each h in the table is tried by principal_generator of
      P^e h, which also gives the row's element."""
    k = len(gens)
    D = field.disc
    if field.degree == 2:
        keys: dict = {}  # form -> key, shared by every rho-walk below

        def handle(lat):
            return _class_key(ideal_form(field, lat), D, keys)

        def mul(f, g):
            return _class_key(_compose(f, g, D), D, keys)

        def find(f, table):
            a, b, c = f
            return table.get(_class_key((a, -b, c), D, keys)), None
    else:
        def handle(lat):
            return tuple(map(tuple, lat))

        def mul(x, y):
            return handle(lattice_mul(field, x, y))

        def find(x, table):
            for h, v in table.items():
                g = principal_generator(field, mul(x, h) if any(v) else x)
                if g is not None:
                    return v, g
            return None, None

    table = {handle(la.identity(field.degree)): [0] * k}
    rows, elements = [], []
    squares: dict = {}  # (j, t) -> P_j^(2^t), shared by every row's product
    for i, P in enumerate(gens):
        f = handle(P.lattice())
        powers = [f]  # the handles of P, P^2, ...
        # A quadratic class holds a reduced form, and there are fewer than
        # 2|D|, so there the bound is never reached.  In other degrees it
        # is a budget: reaching it refuses the field, never a wrong group.
        for _ in range(2 * abs(D)):
            v, g = find(powers[-1], table)
            if v is not None:
                break
            powers.append(mul(powers[-1], f))
        else:
            raise CertificationError(f"no power of {P.label} met the classes enumerated")
        row = v[:i] + [len(powers)] + v[i + 1:]
        if g is None:
            g = principal_generator(field, _ideal_power_product(field, gens, row, squares))
            if g is None:
                raise CertificationError(f"relation {row} has no generator")
        rows.append(row)
        elements.append(g)
        coset = list(table.items())
        for j, x in enumerate(powers[:-1], 1):
            for h, w in coset:
                # The entry at w = 0 is the principal class: x itself.
                table[mul(x, h) if any(w) else x] = w[:i] + [j] + w[i + 1:]
    return rows, elements, len(table)


def _class_key(form, D, keys: dict | None = None):
    """The key of the class of a primitive form, itself a reduced form of
    that class.  The ideal form of a lattice on its positively oriented
    HNF basis (ideal_form) is a homomorphism from ideals to proper classes
    of primitive forms of discriminant D = disc(K) under composition
    (_compose), and the key is a function of the ideal class that tells
    classes apart:

    - D < 0: the Gauss-reduced form.  It is unique in its proper class,
      and the proper classes are the ideal classes.
    - D > 0: the least (|a|, b, |c|) over the cycle of reduced forms that
      rho reaches from f, taken with a > 0.  rho is a proper equivalence
      and the reduced forms of a proper class make up one rho-cycle, so
      the key is constant on the proper class; rho(-f) = -rho(f), so -f
      has the negated cycle and the same key.  The class of -f is that
      of f composed with -f0, f0 the principal form, and -f0 is the class
      of every principal ideal whose generators have negative norm; so f
      and -f are forms of one wide ideal class, and the key depends on
      the wide class only.  Conversely a reduced form has ac < 0, so
      (|a|, b, |c|) fixes it up to sign: equal keys mean forms equal up
      to sign on the two cycles, so one wide class.

    For D > 0, keys maps forms met on earlier walks to their keys, and
    the walk from f stops at the first of them; every form of the walk
    is then recorded with f's key.  This is exact without class theory:
    rho is a function, so the walk from any form on f's walk is the rest
    of f's walk.  It ends on the same cycle, with the same least form.
    One dict shared across an enumeration hands each form to rho at most
    once."""
    if D < 0:
        return _reduce_definite(form)[0]
    if keys is None:
        keys = {}
    seen: dict = {}
    root = math.isqrt(D)
    while form not in keys and form not in seen:
        seen[form] = len(seen)
        form = _rho_step(form, D, root)[0]
    key = keys.get(form)
    if key is None:
        cycle = list(seen)[seen[form]:]
        a, b, c = min(cycle, key=lambda g: (abs(g[0]), g[1], abs(g[2])))
        key = abs(a), b, -abs(c)
    keys.update(dict.fromkeys(seen, key))
    return key


def _compose(f, g, D):
    """The composite of primitive forms f and g of discriminant D (Cohen,
    GTM 138, Def. 5.4.6), unreduced."""
    a1, b1, _ = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    d1, _, v1 = la.xgcd(a1, a2)
    d, x, w = la.xgcd(d1, s)  # d = gcd(a1, a2, s) = u a1 + (x v1) a2 + w s
    b3 = b2 + 2 * (a2 // d) * (x * v1 * (s - b2) - w * c2)
    a3 = a1 * a2 // (d * d)
    return a3, b3, (b3 * b3 - D) // (4 * a3)


def _ideal_power_product(field, gens, exps, squares: dict | None = None):
    """prod P_i^exps[i] for exps >= 0, each power by square-and-multiply.

    squares maps (i, t) to the lattice of P_i^(2^t), t >= 1, for the
    primes gens, and is filled with the squares this product needs; a
    caller that passes one dict to every product over the same gens has
    each square computed once."""
    if squares is None:
        squares = {}
    lat = None
    for i, (P, e) in enumerate(zip(gens, exps)):
        if not e:
            continue
        base = P.lattice()
        t = 0
        while e:
            if e & 1:
                lat = base if lat is None else lattice_mul(field, lat, base)
            e >>= 1
            if e:
                t += 1
                square = squares.get((i, t))
                if square is None:
                    square = squares[i, t] = lattice_mul(field, base, base)
                base = square
    if lat is None:
        return la.identity(field.degree)
    return lat


def solve_relation_element(data: ClassGroupData, target: list[int]) -> NFElement | None:
    """Element x with (x) = prod P_i^target[i], as an explicit product of
    the stored relation generators; None if target is not in the relation
    lattice."""
    if not data.generating_primes:
        return None
    rows = data.relation_matrix
    mt = la.transpose(rows)  # columns = relations
    sol = la.solve_integer(mt, target)
    if sol is None:
        return None
    x = data.field.one
    for c, g in zip(sol, data.relation_elements):
        x = x * g**c
    return x

"""Polynomial utilities: exact arithmetic over Z/Q and factorization mod q.

Polynomials are coefficient tuples in ascending degree order.  A tiny
residue-field type F_{q^f} = F_q[t]/(g) sits here too, since it is just
polynomial arithmetic.
"""

from __future__ import annotations

from itertools import product

Poly = tuple  # coefficients, ascending degree


def poly_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(f: Poly) -> int:
    return len(f) - 1


def poly_add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_neg(f: Poly) -> Poly:
    return tuple(-c for c in f)


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(out)


def poly_eval(f: Poly, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Arithmetic in F_q[x]


def gfp_trim(f, q):
    f = [c % q for c in f]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def gfp_add(f, g, q):
    return gfp_trim([(a + b) for a, b in _zip_pad(f, g)], q)


def gfp_sub(f, g, q):
    return gfp_trim([(a - b) for a, b in _zip_pad(f, g)], q)


def _zip_pad(f, g):
    n = max(len(f), len(g))
    for i in range(n):
        yield (f[i] if i < len(f) else 0), (g[i] if i < len(g) else 0)


def gfp_mul(f, g, q):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return gfp_trim(out, q)


def gfp_divmod(f, g, q):
    f = [c % q for c in f]
    g = gfp_trim(g, q)
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, q)
    quo = [0] * max(0, len(f) - len(g) + 1)
    while True:
        f = [c % q for c in f]
        while f and f[-1] % q == 0:
            f.pop()
        if len(f) < len(g):
            break
        c = (f[-1] * inv) % q
        d = len(f) - len(g)
        quo[d] = c
        for i, gc in enumerate(g):
            f[d + i] = (f[d + i] - c * gc) % q
        f.pop()
    return gfp_trim(quo, q), gfp_trim(f, q)


def gfp_mod(f, g, q):
    return gfp_divmod(f, g, q)[1]


def gfp_gcd(f, g, q):
    f, g = gfp_trim(f, q), gfp_trim(g, q)
    while g:
        f, g = g, gfp_mod(f, g, q)
    if f:
        inv = pow(f[-1], -1, q)
        f = gfp_trim([c * inv for c in f], q)
    return f


def gfp_monic(f, q):
    f = gfp_trim(f, q)
    if not f:
        return f
    inv = pow(f[-1], -1, q)
    return gfp_trim([c * inv for c in f], q)


def gfp_powmod(f, e, g, q):
    result = (1,)
    f = gfp_mod(f, g, q)
    while e:
        if e & 1:
            result = gfp_mod(gfp_mul(result, f, q), g, q)
        f = gfp_mod(gfp_mul(f, f, q), g, q)
        e >>= 1
    return result


def gfp_factor(f, q) -> list[tuple[Poly, int]]:
    """Factor monic f over F_q into (monic irreducible, multiplicity) pairs,
    sorted by (degree, coefficient tuple) so the ordering is deterministic.

    Squarefree decomposition, then distinct-degree splitting, then a
    derandomized Cantor-Zassenhaus that tries shift polynomials x + c,
    x^2 + c, ... in a fixed order.
    """
    f = gfp_monic(f, q)
    if poly_deg(f) < 1:
        return []
    out = []
    for g in _factor_squarefree(gfp_radical(f, q), q):
        mult = 0
        rem = f
        while True:
            quo, r = gfp_divmod(rem, g, q)
            if r:
                break
            rem, mult = quo, mult + 1
        out.append((g, mult))
    return sorted(out, key=lambda t: (poly_deg(t[0]), t[0]))


def gfp_radical(f, q):
    """Product of the distinct monic irreducible factors of f over F_q."""
    f = gfp_monic(f, q)
    if poly_deg(f) <= 0:
        return (1,)
    d = gfp_trim([i * c for i, c in enumerate(f)][1:], q)
    if not d:
        # f(x) = h(x^q); same set of irreducible factors as h.
        h = gfp_trim([f[i] for i in range(0, len(f), q)], q)
        return gfp_radical(h, q)
    s = gfp_gcd(f, d, q)
    r1 = gfp_divmod(f, s, q)[0]
    r2 = gfp_radical(s, q) if poly_deg(s) > 0 else (1,)
    g = gfp_gcd(r1, r2, q)
    return gfp_divmod(gfp_mul(r1, r2, q), g, q)[0]


def _factor_squarefree(f, q):
    factors = []
    # Distinct-degree decomposition.
    h = (0, 1)  # x
    v = f
    d = 0
    dd = []
    while poly_deg(v) >= 2 * (d + 1):
        d += 1
        h = gfp_powmod(h, q, v, q)
        g = gfp_gcd(gfp_sub(h, (0, 1), q), v, q)
        if poly_deg(g) > 0:
            dd.append((g, d))
            v = gfp_divmod(v, g, q)[0]
            h = gfp_mod(h, v, q)
    if poly_deg(v) > 0:
        dd.append((v, poly_deg(v)))
    for g, d in dd:
        factors.extend(_equal_degree_split(g, d, q))
    return factors


def _equal_degree_split(f, d, q):
    n = poly_deg(f)
    if n == d:
        return [gfp_monic(f, q)]
    # Try candidate elements in a fixed order until a split is found.
    e = (q**d - 1) // 2 if q != 2 else None
    cand_iter = _candidates(n, q)
    for a in cand_iter:
        if q == 2:
            # Trace map over F_2.
            t = a
            acc = a
            for _ in range(d - 1):
                t = gfp_powmod(t, 2, f, q)
                acc = gfp_add(acc, t, q)
            g = gfp_gcd(acc, f, q)
        else:
            b = gfp_powmod(a, e, f, q)
            g = gfp_gcd(gfp_sub(b, (1,), q), f, q)
        if 0 < poly_deg(g) < n:
            left = _equal_degree_split(g, d, q)
            right = _equal_degree_split(gfp_divmod(f, g, q)[0], d, q)
            return left + right
    raise RuntimeError("equal-degree split failed")  # pragma: no cover


def _candidates(n, q):
    # x + c, then higher-degree shifts; deterministic enumeration.
    for deg in range(1, n + 1):
        for tail in product(range(q), repeat=deg):
            yield gfp_trim(tail + (1,), q)


# ---------------------------------------------------------------------------
# Residue fields F_{q^f}


class ResidueField:
    """F_q[t]/(g) with g monic irreducible over F_q.

    Elements are reduced coefficient tuples.  Deliberately minimal: just
    what power-residue tests and discrete logs in small groups need.
    """

    def __init__(self, q: int, modulus: Poly):
        self.q = q
        self.modulus = gfp_monic(modulus, q)
        self.deg = poly_deg(self.modulus)
        self.order = q**self.deg
        self._subgroup_gens: dict[int, Poly] = {}  # memo of subgroup_generator

    def elt(self, coeffs) -> Poly:
        return gfp_mod(tuple(coeffs), self.modulus, self.q)

    def from_int(self, n: int) -> Poly:
        return gfp_trim((n,), self.q)

    def add(self, a, b):
        return gfp_add(a, b, self.q)

    def mul(self, a, b):
        return gfp_mod(gfp_mul(a, b, self.q), self.modulus, self.q)

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        return gfp_powmod(a, e, self.modulus, self.q)

    def inv(self, a):
        return self.pow(a, self.order - 2)

    @property
    def one(self):
        return (1,)

    @property
    def zero(self):
        return ()

    def is_zero(self, a) -> bool:
        return not a

    def elements(self):
        """All field elements in a fixed lexicographic-by-degree order."""
        for tup in product(range(self.q), repeat=self.deg):
            yield gfp_trim(tup, self.q)

    def subgroup_generator(self, m: int):
        """Fixed generator of the order-m subgroup of the multiplicative
        group (m must divide order - 1): first element in enumeration order
        whose (order-1)/m power has exact order m."""
        if m in self._subgroup_gens:
            return self._subgroup_gens[m]
        assert (self.order - 1) % m == 0
        e = (self.order - 1) // m
        for a in self.elements():
            if self.is_zero(a):
                continue
            z = self.pow(a, e)
            if self._order_is(z, m):
                self._subgroup_gens[m] = z
                return z
        raise RuntimeError("no subgroup generator found")  # pragma: no cover

    def _order_is(self, z, m: int) -> bool:
        if self.pow(z, m) != self.one:
            return False
        for r in prime_factors(m):
            if self.pow(z, m // r) == self.one:
                return False
        return True

    def dlog(self, target, base, order: int) -> int:
        """Discrete log in the cyclic group generated by base of known
        order; brute force, fine for the small groups used here."""
        acc = self.one
        for k in range(order):
            if acc == target:
                return k
            acc = self.mul(acc, base)
        raise ValueError("element not in the cyclic subgroup")

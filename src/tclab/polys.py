"""Polynomial utilities: exact arithmetic over Z/Q and factorization mod q.

Polynomials are coefficient tuples in ascending degree order.  Over Q
there are discriminants (resultants as Sylvester determinants), Sturm
sequences by integer pseudo-division, squarefree parts, the isolation of
real roots into integer dyadic cells whose Sturm signs come from one
integer Horner, the integer roots in those cells, and an irreducibility
test from them, from factorization patterns mod q, or from Hensel lifts
of the factors mod q (Cohen, GTM 138, 3.3, 3.5 and 4.1).  Everything over
Q stays in integers.  A tiny residue-field type F_{q^f} = F_q[t]/(g) sits
here too, since it is just polynomial arithmetic: it reduces integer
coefficient vectors and products through one table of the rows t^k mod
g, taking each coefficient mod q once, and its norm to F_q is a
resultant.  The F_q[x] arithmetic (gfp_*) serves the factorization, its
Hensel lifts and the roots of f mod q (gfp_roots); gfp_powmod reduces
through such a table of its modulus.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, product, zip_longest

from .intlinalg import det

Poly = tuple  # coefficients, ascending degree


def poly_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(f: Poly) -> int:
    return len(f) - 1


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_trim([a - b for a, b in zip_longest(f, g, fillvalue=0)])


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
# Discriminants, real roots and irreducibility over Q


def poly_deriv(f: Poly) -> Poly:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) of integer polynomials: the determinant of their
    Sylvester matrix."""
    n, m = poly_deg(f), poly_deg(g)
    rows = [[0] * i + list(reversed(f)) + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + list(reversed(g)) + [0] * (n - 1 - i) for i in range(n)]
    return det(rows)


def discriminant(f: Poly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f in Z[x] of degree n."""
    n = poly_deg(f)
    return (-1) ** (n * (n - 1) // 2) * resultant(f, poly_deriv(f))


def _rem(f: Poly, g: Poly) -> Poly:
    """A positive multiple of the remainder of f by g over Q, in integers:
    each step scales r by |g_n| and clears its top coefficient with a
    multiple of g."""
    r = list(f)
    scale, sign = abs(g[-1]), (g[-1] > 0) - (g[-1] < 0)
    while len(r) >= len(g):
        c = sign * r[-1]
        shift = len(r) - len(g)
        r = [scale * a for a in r]
        for i, gc in enumerate(g):
            r[shift + i] -= c * gc
        r = list(poly_trim(r[:-1]))
    return tuple(r)


def sturm_sequence(f: Poly) -> list[Poly]:
    """f, f', then negated remainders down to gcd(f, f'), each scaled to
    a primitive integer polynomial by a positive factor."""
    seq = [tuple(f), poly_deriv(f)]
    while True:
        r = _rem(seq[-2], seq[-1])
        if not r:
            return seq
        content = math.gcd(*r)
        seq.append(tuple(-c // content for c in r))


def _scaled_value(f, X: int, E: int) -> int:
    """2^(E deg f) f(X / 2^E), for f with integer coefficients."""
    n = len(f) - 1
    acc = f[-1]
    for i in range(n - 1, -1, -1):
        acc = acc * X + (f[i] << (E * (n - i)))
    return acc


def _sign_at(f, X: int, E: int) -> int:
    """The sign of f(X / 2^E): that of sum_i a_i X^i (2^E)^(n - i)."""
    v = _scaled_value(f, X, E)
    return (v > 0) - (v < 0)


def _variations_at(seq, X: int, E: int) -> int:
    """Sign variations of the Sturm sequence seq at X / 2^E."""
    signs = [s for s in (_sign_at(p, X, E) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_root_cells(f: Poly, bound: int | None = None) -> list[tuple[int, int, int]]:
    """One integer cell (L, W, E) per real root in (-B, B] of the monic
    squarefree integer polynomial f, ascending: the half-open interval
    (L / 2^E, (L + W) / 2^E] holds exactly that root, and is narrower
    than 1.

    B is bound, by default the Cauchy bound 1 + max |a_i|, which holds
    every root.  The cell (-B, 2B, 0) is bisected, the cell (L, W, E)
    into (2L, W, E + 1) and (2L + W, W, E + 1), and the Sturm count
    V(lo) - V(hi) gives the number of roots in each piece, also when an
    endpoint is itself a root.
    """
    seq = sturm_sequence(f)
    B = bound or 1 + max(abs(c) for c in f[:-1])
    W = 2 * B
    stack = [(-B, 0, _variations_at(seq, -B, 0), _variations_at(seq, B, 0))]
    out = []
    while stack:
        L, E, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and W >> E == 0:
            out.append((L, W, E))
            continue
        M = 2 * L + W
        vmid = _variations_at(seq, M, E + 1)
        stack += [(M, E + 1, vmid, vhi), (2 * L, E + 1, vlo, vmid)]
    return out


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f') for monic f in Z[x].  The gcd g, the last Sturm
    entry made primitive, divides f, so g[-1] = +-1 and long division by
    the monic g[-1] g stays in integers."""
    g = sturm_sequence(f)[-1]
    g = [c // math.gcd(*g) for c in g]
    r, q = list(f), []
    for i in reversed(range(len(f) - len(g) + 1)):
        q.append(c := r[i + len(g) - 1])
        for j, gc in enumerate(g):
            r[i + j] -= c * g[-1] * gc
    return tuple(reversed(q))


def integer_roots(f: Poly, cells) -> list[int]:
    """The integer roots of f in its real_root_cells cells, ascending: the
    floor of a cell's right end is the only integer it can hold."""
    return [k for L, W, E in cells
            if (k := (L + W) >> E) << E > L and poly_eval(f, k) == 0]


# Primes q not dividing disc(f) whose factorization patterns is_irreducible
# reads before it tests for a factor directly.
_PATTERN_PRIMES = 30


def is_irreducible(f: Poly, cells) -> bool:
    """Whether the monic squarefree integer polynomial f of degree 1-6,
    whose real_root_cells are cells, is irreducible over Q.

    Degree <= 3: f is reducible exactly when it has a rational root, and
    a rational root of a monic integer polynomial is an integer.  Degree
    4-6: a factor of degree d over Q reduces to a product of irreducible
    factors mod q, so d is a sum of some of the factor degrees of f mod q
    for every prime q not dividing disc(f).  When no d in 1..n-1 is such
    a sum for all the primes read, f is irreducible.  Some polynomials
    (x^4 + 1, x^4 - 10x^2 + 1, and every reducible one) leave a d at
    every q.  Then the read prime q with the fewest factors decides
    (Zassenhaus, J. Number Theory 1, 1969; Cohen, GTM 138, 3.5): a monic
    factor G of f over Z with deg G <= n/2 has coefficients of absolute
    value at most B = 2^(n/2) |f|_2 (Mignotte), and G mod q is the
    product of some subset of the factors of f mod q.  f is squarefree
    mod q, so the split f = G H mod q lifts uniquely to mod m = q^k > 2B,
    and the symmetric residues of the lift of that subset are G.  f is
    irreducible when no subset gives a divisor of f.
    """
    n = poly_deg(f)
    if n <= 3:
        return n == 1 or not integer_roots(f, cells)
    disc = discriminant(f)
    if disc == 0:
        return False  # f has a repeated factor
    possible = set(range(1, n))
    q, tried, fewest = 1, 0, None
    while tried < _PATTERN_PRIMES:
        q += 1
        if prime_factors(q) != [q] or disc % q == 0:
            continue
        tried += 1
        factors = [g for g, _ in gfp_factor(f, q)]
        sums = {0}
        for g in factors:
            sums |= {s + poly_deg(g) for s in sums}
        possible &= sums
        if not possible:
            return True
        if fewest is None or len(factors) < len(fewest[1]):
            fewest = q, factors
    q, factors = fewest
    m, bound = q, 2 ** (n // 2) * (math.isqrt(sum(a * a for a in f)) + 1)
    while m <= 2 * bound:
        m *= q
    for r in range(1, len(factors)):
        for subset in combinations(factors, r):
            if (d := sum(map(poly_deg, subset))) > n // 2 or d not in possible:
                continue
            g = reduce(lambda a, b: gfp_mul(a, b, q), subset)
            g = _hensel_lift(f, g, gfp_divmod(f, g, q)[0], q, m)
            if not _rem(f, tuple(c - m if 2 * c > m else c for c in g)):
                return False
    return True


def _hensel_lift(f: Poly, g, h, q: int, m: int):
    """The monic lift mod m = q^k of g, for monic g, h over F_q coprime
    with f = g h mod q: linear Hensel steps from q^j to q^(j+1), each
    adding q^j times the corrections t e mod g and s e mod h, where e =
    (f - g h)/q^j and s g + t h = 1 mod q."""
    _, s, t = gfp_xgcd(g, h, q)
    Q = q
    while Q < m:
        e = [c // Q for c in poly_sub(f, poly_mul(g, h))]
        g = gfp_add(g, [Q * c for c in gfp_mod(gfp_mul(t, e, q), g, q)], Q * q)
        h = gfp_add(h, [Q * c for c in gfp_mod(gfp_mul(s, e, q), h, q)], Q * q)
        Q *= q
    return g


# ---------------------------------------------------------------------------
# Arithmetic in F_q[x]


def gfp_trim(f, q):
    f = [c % q for c in f]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def gfp_add(f, g, q):
    return gfp_trim([a + b for a, b in zip_longest(f, g, fillvalue=0)], q)


def gfp_sub(f, g, q):
    return gfp_trim([a - b for a, b in zip_longest(f, g, fillvalue=0)], q)


def gfp_mul(f, g, q):
    return gfp_trim(_convolve(f, g), q)


def gfp_divmod(f, g, q):
    g = gfp_trim(g, q)
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, q)
    dg = len(g) - 1
    r = [c % q for c in f]
    quo = [0] * max(0, len(r) - dg)
    # One pass per quotient coefficient, from the top; each clears r[d + dg].
    for d in range(len(quo) - 1, -1, -1):
        c = r[d + dg] * inv % q
        if c:
            quo[d] = c
            for i, gc in enumerate(g):
                r[d + i] = (r[d + i] - c * gc) % q
    return gfp_trim(quo, q), gfp_trim(r[:dg], q)


def gfp_mod(f, g, q):
    return gfp_divmod(f, g, q)[1]


def gfp_gcd(f, g, q):
    f, g = gfp_trim(f, q), gfp_trim(g, q)
    while g:
        f, g = g, gfp_mod(f, g, q)
    return gfp_monic(f, q)


def gfp_xgcd(f, g, q):
    """(d, s, t) with s f + t g = d, the monic gcd of f and g over F_q."""
    r0, r1, s0, s1, t0, t1 = gfp_trim(f, q), gfp_trim(g, q), (1,), (), (), (1,)
    while r1:
        quo, r = gfp_divmod(r0, r1, q)
        r0, r1 = r1, r
        s0, s1 = s1, gfp_sub(s0, gfp_mul(quo, s1, q), q)
        t0, t1 = t1, gfp_sub(t0, gfp_mul(quo, t1, q), q)
    inv = pow(r0[-1], -1, q)
    return tuple(gfp_trim([c * inv for c in x], q) for x in (r0, s0, t0))


def gfp_monic(f, q):
    f = gfp_trim(f, q)
    if not f:
        return f
    inv = pow(f[-1], -1, q)
    return gfp_trim([c * inv for c in f], q)


def gfp_powmod(f, e, g, q):
    """f^e mod g over F_q, e >= 0: square-and-multiply on integer
    convolutions, each reduced through the fold table of g (_fold_table)."""
    g = gfp_monic(g, q)
    n = poly_deg(g)
    table = _fold_table(g, q, 2 * n - 1)
    result, f = (1,), gfp_mod(f, g, q)
    while e:
        if e & 1:
            result = _fold(_convolve(result, f), n, q, table)
        e >>= 1
        if e:
            f = _fold(_convolve(f, f), n, q, table)
    return result


def _fold_table(g, q, top):
    """The rows t^k mod g for f = deg g <= k < top, g monic over F_q, for
    gfp_powmod and ResidueField.  Each row is t times the one before: its
    top coefficient c moves to c t^f = -c (g_0 + ... + g_(f-1) t^(f-1))."""
    f = poly_deg(g)
    row, table = (0,) * (f - 1) + (1,), []  # t^(f-1)
    for _ in range(top - f):
        c = row[-1]
        row = tuple((s - c * gi) % q for s, gi in zip((0,) + row[:-1], g))
        table.append(row)
    return tuple(table)


def _fold(coeffs, f, q, table):
    """sum_k coeffs[k] t^k mod g over F_q, for table = _fold_table(g, q,
    top), f = deg g and integers coeffs of length at most top: c_k times
    row k is added into the low f coefficients, each sum mod q once."""
    low = list(coeffs[:f])
    low += [0] * (f - len(low))
    for k in range(f, len(coeffs)):
        c = coeffs[k]
        if c:
            for i, r in enumerate(table[k - f]):
                low[i] += c * r
    while low and low[-1] % q == 0:
        low.pop()
    return tuple(c % q for c in low)


def _convolve(a, b) -> list[int]:
    """The integer coefficients of the product of a and b, unreduced."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def gfp_factor(f, q) -> list[tuple[Poly, int]]:
    """Factor monic f over F_q into (monic irreducible, multiplicity) pairs,
    sorted by (degree, coefficient tuple) so the ordering is deterministic.

    A quadratic is split in closed form (_factor_quadratic).  Any other
    degree goes through its radical, then distinct-degree splitting, then
    a derandomized Cantor-Zassenhaus that tries shift polynomials x + c,
    x^2 + c, ... in a fixed order; both take powers mod a factor by
    gfp_powmod.  The multiplicities are counted by division only when f
    is not squarefree, i.e. not its own radical.
    """
    f = gfp_monic(f, q)
    if poly_deg(f) < 1:
        return []
    if poly_deg(f) == 2:
        return _factor_quadratic(f, q)
    radical = gfp_radical(f, q)
    out = []
    for g in _factor_squarefree(radical, q):
        mult, rem = 1, f
        if radical != f:  # else f is squarefree and every multiplicity is 1
            mult = 0
            while True:
                quo, r = gfp_divmod(rem, g, q)
                if r:
                    break
                rem, mult = quo, mult + 1
        out.append((g, mult))
    return sorted(out, key=lambda t: (poly_deg(t[0]), t[0]))


def gfp_roots(f, q) -> list[int]:
    """The distinct roots of f over F_q, ascending, f nonzero mod q: the
    linear factors of gcd(x^q - x, f), which _equal_degree_split finds
    with no factorisation of f."""
    f = gfp_monic(f, q)
    g = gfp_gcd(gfp_sub(gfp_powmod((0, 1), q, f, q), (0, 1), q), f, q)
    if poly_deg(g) < 1:
        return []
    return sorted(-h[0] % q for h in _equal_degree_split(g, 1, q))


def _factor_quadratic(f, q):
    """gfp_factor of a monic quadratic f = x^2 + b x + c over F_q, from its
    roots: the two residues mod 2 tried directly; for odd q, the
    discriminant b^2 - 4c, which is 0 for a double root and a non-square
    (Euler's criterion) for an irreducible f, and otherwise gives the
    roots (-b +- sqrt)/2 by Tonelli-Shanks (Cohen, GTM 138, 1.5)."""
    c, b, _ = f
    if q == 2:
        roots = [r for r in (0, 1) if (r + b * r + c) % 2 == 0]
        if len(roots) == 1:
            roots *= 2  # x^2 + b x + c = (x - r)(x - r') with r' = -b - r in F_2
    else:
        disc = (b * b - 4 * c) % q
        if disc and pow(disc, (q - 1) // 2, q) != 1:
            return [(f, 1)]
        s = _sqrt_mod(disc, q)
        half = (q + 1) // 2
        roots = [(s - b) * half % q, (-s - b) * half % q]
    if not roots:
        return [(f, 1)]
    if roots[0] == roots[1]:
        return [((-roots[0] % q, 1), 2)]
    return sorted(((-r % q, 1), 1) for r in roots)


def _sqrt_mod(a, q):
    """A square root of the square a mod the odd prime q (Tonelli-Shanks;
    Cohen, GTM 138, Alg. 1.5.1)."""
    if a == 0:
        return 0
    e, s = 0, q - 1
    while s % 2 == 0:
        e, s = e + 1, s // 2
    if e == 1:
        return pow(a, (q + 1) // 4, q)
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    y, x, b = pow(z, s, q), pow(a, (s + 1) // 2, q), pow(a, s, q)
    # Invariant: x^2 = a b, and b has order dividing 2^(e-1), y order 2^e.
    while b != 1:
        m, t = 0, b
        while t != 1:
            m, t = m + 1, t * t % q
        t = pow(y, 1 << (e - m - 1), q)
        y, e = t * t % q, m
        x, b = x * t % q, b * y % q
    return x


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
    if s == (1,):
        return f
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
    if n == 2:
        # n = 2 > d: two linear factors, in closed form.
        return [g for g, _ in _factor_quadratic(gfp_monic(f, q), q)]
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
    # x + c, then higher-degree shifts; deterministic enumeration.  The
    # x + c come straight from range(q): product would first copy it into
    # a tuple, O(q) for a search that mostly stops at a small c.
    if n:
        yield from ((c, 1) for c in range(q))
    for deg in range(2, n + 1):
        for tail in product(range(q), repeat=deg):
            yield gfp_trim(tail + (1,), q)


# ---------------------------------------------------------------------------
# Residue fields F_{q^f}

# Every fold table reaches at least degree _FOLD_TOP - 1, so that elt takes
# the integer coordinate vector of an element of any field of degree <= 6
# (numberfield refuses more) in one pass.
_FOLD_TOP = 6


class ResidueField:
    """F_q[t]/(g) with g monic irreducible of degree f over F_q.

    Elements are reduced coefficient tuples.  Deliberately minimal: just
    what power-residue tests and discrete logs in small groups need.  The
    field holds one table, the rows t^k mod g for f <= k < max(_FOLD_TOP,
    2f - 1): an integer coefficient vector is reduced by adding c_k times
    row k into its low f coefficients for every k >= f, and taking each
    sum mod q once.  A product is the integer convolution of two
    elements, reduced the same way.
    """

    def __init__(self, q: int, modulus: Poly):
        self.q = q
        self.modulus = gfp_monic(modulus, q)
        self.deg = poly_deg(self.modulus)
        self.order = q**self.deg
        # a^norm_exp = N(a), the norm to F_q: (q^f - 1)/(q - 1), 1 at f = 1.
        self.norm_exp = (self.order - 1) // (q - 1)
        self._subgroup_gens: dict[int, Poly] = {}  # memo of subgroup_generator
        self._fold = _fold_table(self.modulus, q, max(_FOLD_TOP, 2 * self.deg - 1))

    def elt(self, coeffs) -> Poly:
        """The reduced element sum_k coeffs[k] t^k, for integers coeffs of
        length at most max(_FOLD_TOP, 2f - 1)."""
        return _fold(coeffs, self.deg, self.q, self._fold)

    def mul(self, a, b):
        return self.elt(_convolve(a, b))

    def norm(self, a) -> int:
        """N(a) in 0..q-1, the norm to F_q: the product a a^q ...
        a^(q^(f-1)) of the Frobenius conjugates of a, which is
        a^((q^f - 1)/(q - 1)) (Lidl-Niederreiter, Finite Fields, Thm
        2.28), read as the resultant Res(g, a) mod q for the monic
        modulus g."""
        if len(a) <= 1:
            # A constant c (and so every element of F_q) has norm c^f.
            return pow(a[0], self.deg, self.q) if a else 0
        return resultant(self.modulus, a) % self.q

    def pow(self, a, e: int):
        """a^e for e >= 0.  When norm_exp divides e, which for e = (q^f -
        1)/m is exactly when m | q - 1, a^e = N(a)^(e/norm_exp) lies in
        F_q and is one integer power mod q; otherwise square-and-multiply
        with mul."""
        if e < 0:
            raise ValueError("negative exponent")
        k = self.norm_exp
        if e % k:
            out = self.one
            while e:
                if e & 1:
                    out = self.mul(out, a)
                e >>= 1
                if e:
                    a = self.mul(a, a)
            return out
        n = pow(self.norm(a), e // k, self.q)
        return (n,) if n else ()

    @property
    def one(self):
        return (1,)

    def is_zero(self, a) -> bool:
        return not a

    def elements(self):
        """All field elements in a fixed lexicographic-by-degree order."""
        for tup in product(range(self.q), repeat=self.deg):
            yield gfp_trim(tup, self.q)

    def subgroup_generator(self, m: int):
        """Fixed generator z = a^((order-1)/m) of the order-m subgroup of
        the multiplicative group (m must divide order - 1), for the first
        nonzero a in _candidates order (t + c first) that is no r-th power
        for any prime r | m.  Then z^m = 1 and z^(m/r) = a^((order-1)/r)
        != 1, so z has exact order m; the degree-deg candidates reduce to
        every element, so the search ends."""
        if m in self._subgroup_gens:
            return self._subgroup_gens[m]
        assert (self.order - 1) % m == 0
        rs = prime_factors(m)
        for cand in _candidates(self.deg, self.q):
            a = self.elt(cand)
            if a and all(self.pow(a, (self.order - 1) // r) != self.one for r in rs):
                z = self._subgroup_gens[m] = self.pow(a, (self.order - 1) // m)
                return z
        raise RuntimeError("no subgroup generator found")  # pragma: no cover

    def dlog(self, target, base, order: int) -> int:
        """Discrete log in the cyclic group generated by base of known
        order; brute force, fine for the small groups used here."""
        acc = self.one
        for k in range(order):
            if acc == target:
                return k
            acc = self.mul(acc, base)
        raise ValueError("element not in the cyclic subgroup")

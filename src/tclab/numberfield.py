"""Number fields at desk scale: construction, element arithmetic, prime
factorization, residue fields and power-residue classes.

Fields are given by a monic irreducible integer polynomial f of degree
n <= 6.  An element is integer numerators over one denominator in a fixed
integral basis; its arithmetic reads integer multiplication matrices
built from the basis's integer structure constants.  Everything is exact.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from typing import NamedTuple

from . import intlinalg as la
from . import polys
from .embeddings import RealEmbeddings
from .polys import ResidueField, gfp_factor, gfp_gcd, gfp_trim


class FieldError(ValueError):
    pass


class NFElement:
    """nums / den in the coordinates of the integral basis: integers with
    den > 0 and gcd(nums, den) = 1 (Cohen, GTM 138, 4.2).  Arithmetic reads
    nums and den directly; elements of different fields are never equal.
    Elements are hashed and are not modified after construction."""

    def __init__(self, field: "NumberField", nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, for reports."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __add__(self, other):
        other = self.field.elt(other)
        a, b = self.den, other.den
        return _reduced(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __sub__(self, other):
        return self + -self.field.elt(other)

    def __neg__(self):
        return NFElement(self.field, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        other = self.field.elt(other)
        m = self.field._mult_matrix(self.nums)
        return _reduced(self.field, la.mat_vec(m, other.nums), self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        """Square-and-multiply with no product by one and no square past
        the top bit of e: x**2 is one multiplication."""
        if e <= 0:
            return self.inverse() ** (-e) if e else self.field.one
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.elt(other)
        return (isinstance(other, NFElement) and other.field is self.field
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def inverse(self) -> "NFElement":
        """y / d for the Bareiss solution of M y = d den e_0, M the
        multiplication matrix of nums: nums y / d is den, the element
        whose coordinates are den e_0 as the basis starts with 1."""
        m = self.field._mult_matrix(self.nums)
        return _reduced(self.field, *la.bareiss_solve(m, [self.den] + [0] * (len(m) - 1)))

    def __truediv__(self, other):
        other = self.field.elt(other)
        return self * other.inverse()

    def norm(self) -> Fraction:
        """det(M) / den^n for M the multiplication matrix of nums."""
        return Fraction(la.det(self.field._mult_matrix(self.nums)), self.den**self.field.degree)

    def trace(self) -> Fraction:
        m = self.field._mult_matrix(self.nums)
        return Fraction(sum(m[i][i] for i in range(len(m))), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def power_coords(self) -> tuple[Fraction, ...]:
        """Coordinates in the power basis 1, theta, ..., theta^(n-1)."""
        den = self.den * self.field._basis_den
        return tuple(Fraction(sum(map(operator.mul, self.nums, col)), den)
                     for col in zip(*self.field._basis_num))

    def __repr__(self):
        return f"NFElement({list(self.nums)} / {self.den})"


def _reduced(field, nums, den: int) -> NFElement:
    """The element nums / den, normalised by one gcd to den > 0 and
    gcd(nums, den) = 1."""
    if den != 1:
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        nums, den = [c // g for c in nums], den // g
    return NFElement(field, tuple(nums), den)


class NumberField:
    """A number field Q[x]/(f) with a fixed integral basis."""

    def __init__(self, min_poly, integral_basis=None, label: str | None = None):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2:
            raise FieldError("polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldError("polynomial must be monic")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        if self.degree > 6:
            raise FieldError("fields of degree > 6 are out of scope")
        # A repeated factor is refused before the root isolation, which
        # needs a squarefree polynomial.
        self.disc_poly = polys.discriminant(coeffs)
        cells = polys.real_root_cells(coeffs) if self.disc_poly else None
        if cells is None or not polys.is_irreducible(coeffs, cells):
            raise FieldError(f"polynomial {list(coeffs)} is reducible over Q")
        # One isolating cell per real root, read again by RealEmbeddings.
        self._root_cells = cells
        self.signature = (len(cells), (self.degree - len(cells)) // 2)
        self.label = label or f"deg{self.degree}field"

        rows = la.identity(self.degree) if integral_basis is None else integral_basis
        self._set_basis([[Fraction(c) for c in row] for row in rows])
        self._structure = self._build_structure()
        self._check_maximality()
        # The basis starts with 1, so 1 has coordinates e_0.
        self.one = self.elt(1)
        self.zero = self.elt(0)
        self._prime_cache: dict[int, tuple] = {}
        self._degree_one_cache: dict[int, tuple["DegreeOnePrime", ...]] = {}
        # Filled by classunit.unit_group and classunit.class_group.
        self._unit_cache = None
        self._class_cache = None

    @cached_property
    def embeddings(self) -> RealEmbeddings:
        return RealEmbeddings(self)

    @cached_property
    def trace_form(self) -> la.Matrix:
        """The integer matrix Tr(b_i b_j) on the integral basis.  In a
        totally real field it is the Gram matrix of T2(x) = Tr(x^2), the
        sum of the squares of the conjugates of x."""
        n = self.degree
        table = self._structure
        traces = [sum(table[j][j][k] for j in range(n)) for k in range(n)]
        return [[sum(table[k][j][i] * traces[k] for k in range(n)) for j in range(n)]
                for i in range(n)]

    # -- construction helpers ------------------------------------------------

    def _set_basis(self, rows):
        n = self.degree
        if len(rows) != n or any(len(r) != n for r in rows):
            raise FieldError("integral basis must be a square matrix of size degree")
        self._basis_rows = rows
        d = la.frac_det(rows)
        if d == 0:
            raise FieldError("integral basis rows are linearly dependent")
        # Index of Z[theta] in the claimed order.
        idx = Fraction(1) / abs(d)
        if idx.denominator != 1:
            raise FieldError("integral basis does not contain Z[theta] with integral index")
        self.index = int(idx)
        if self.disc_poly % (self.index**2) != 0:
            raise FieldError("integral basis discriminant does not divide disc(f)")
        self.disc = self.disc_poly // (self.index**2)
        if rows[0] != [1] + [0] * (n - 1):
            raise FieldError("integral basis must start with 1")
        # B = R / r and B^-1 = r R^-1 = V / v in lowest terms: for R^-1 =
        # V' / v' in lowest terms, r V' / v' reduces by gcd(r, v').  Closure
        # under multiplication is checked in _build_structure.
        flat, r = la.clear_denominators([c for row in rows for c in row])
        R = [flat[i * n:(i + 1) * n] for i in range(n)]
        V, v = la.bareiss_inverse(R)
        g = math.gcd(r, v)
        self._basis_num, self._basis_den = R, r
        self._inv_num, self._inv_den = [[x * (r // g) for x in row] for row in V], v // g

    def _check_maximality(self):
        """Accept the order O only where it is shown maximal: at each q with
        q^2 | disc(O), q must not divide [O : Z[theta]] (so O agrees with
        Z[theta] at q) and Dedekind's criterion must hold for Z[theta] at q.
        Where q^2 does not divide disc(O), O is maximal at q."""
        d = abs(self.disc)
        for q in polys.prime_factors(d):
            if d % (q * q) != 0 or (self.index % q and dedekind_is_maximal(self.min_poly, q)):
                continue
            if self.index == 1:
                raise FieldError(f"Z[theta] is not maximal at {q}; supply an integral basis")
            raise FieldError(f"the order of the integral basis (index {self.index} over "
                             f"Z[theta]) is not shown maximal at {q}")

    def _build_structure(self) -> list[list[tuple[int, ...]]]:
        """The integer structure constants, laid out so that entry [k][j]
        holds coordinate k of b_i b_j for i = 0, ..., n-1: the
        multiplication matrix of x has entry (k, j) = sum_i x_i [k][j][i].
        Refuses a basis whose products leave the lattice it spans.

        In integers: with the basis rows B = R / r and B^-1 = V / v of
        _set_basis, b_i b_j has power coordinates (R_i R_j mod f) / r^2 and
        basis coordinates (R_i R_j mod f) V / (r^2 v)."""
        n = self.degree
        R, r, V, v = self._basis_num, self._basis_den, self._inv_num, self._inv_den
        scale = r * r * v
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coords = self._mul_power(R[i], R[j])
                coords = [sum(map(operator.mul, coords, col)) for col in zip(*V)]
                if any(c % scale for c in coords):
                    raise FieldError(
                        f"integral basis not closed under multiplication at b{i}*b{j}"
                    )
                for k, c in enumerate(coords):
                    table[k][j][i] = table[k][i][j] = c // scale
        return [[tuple(col) for col in row] for row in table]

    def _mul_power(self, a, b):
        """Multiply two power-basis coordinate vectors modulo min_poly."""
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._reduce_power(prod)

    def _reduce_power(self, vec):
        """Reduce a power-basis coordinate list of any length modulo
        min_poly to its n coordinates (integers stay integers)."""
        n = self.degree
        vec = list(vec) + [0] * (n - len(vec))
        # theta^n = -(c_0 + ... + c_{n-1} theta^{n-1}).
        f = self.min_poly
        for k in range(len(vec) - 1, n - 1, -1):
            c = vec[k]
            if c:
                vec[k] = 0
                for j in range(n):
                    vec[k - n + j] -= c * f[j]
        return vec[:n]

    # -- element constructors ------------------------------------------------

    def elt(self, value) -> NFElement:
        """An element of this field, a rational number or integral-basis
        coordinates: ints as they are, Fractions cleared once to the lcm of
        their denominators, which leaves nums prime to it."""
        if isinstance(value, NFElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            value = [value] + [0] * (self.degree - 1)
        if len(value) != self.degree:
            raise FieldError("wrong coordinate length")
        if all(type(c) is int for c in value):
            return NFElement(self, tuple(value), 1)
        nums, den = la.clear_denominators([Fraction(c) for c in value])
        return NFElement(self, tuple(nums), den)

    def from_power(self, vec) -> NFElement:
        """The element sum_i vec[i] theta^i; vec may be longer than the
        degree (in degree 1, theta is the rational -min_poly[0])."""
        nums, den = la.clear_denominators([Fraction(v) for v in vec])
        nums = self._reduce_power(nums)
        nums = [sum(map(operator.mul, nums, col)) for col in zip(*self._inv_num)]
        return _reduced(self, nums, den * self._inv_den)

    @cached_property
    def theta(self) -> NFElement:
        return self.from_power([0, 1])

    def _mult_matrix(self, nums) -> la.Matrix:
        """The integer matrix of multiplication by the element with integer
        integral-basis coordinates nums, acting on coordinate columns."""
        return [[sum(map(operator.mul, nums, c)) for c in row] for row in self._structure]

    # -- discriminant-scale data ----------------------------------------------

    def minkowski_bound(self) -> int:
        """Integer upper bound for the Minkowski bound."""
        n = self.degree
        r2 = self.signature[1]
        # 4/pi < 1.27324; sqrt|d| <= isqrt(|d|) + 1.
        bound = (
            Fraction(math.factorial(n), n**n)
            * Fraction(127324, 100000) ** r2
            * (math.isqrt(abs(self.disc)) + 1)
        )
        return math.ceil(bound)

    # -- prime factorization ---------------------------------------------------

    @cached_property
    def _factor_generator(self):
        """(gen, minimal polynomial of gen, (T, 1) with T the integer matrix
        from basis coordinates to gen-power coordinates) for an element gen
        with Z[gen] equal to the full order, used to factor primes dividing
        the index.  Raises FieldError if the search fails."""
        n = self.degree
        # disc(minpoly(cand)) = det(M)^2 disc(K) for M the columns of basis
        # coordinates of 1, cand, ..., cand^(n-1), so Z[cand] is the whole
        # order iff |det M| = 1, and then T = M^-1 is integral.
        for coords in chain.from_iterable(la.shell(n, h) for h in (1, 2, 3)):
            cand = self.elt(coords)
            pows = [self.one]
            for _ in range(n - 1):
                pows.append(pows[-1] * cand)
            M = la.transpose([p.nums for p in pows])
            if abs(la.det(M)) == 1:
                # cand^n = sum_i c_i cand^i for c = T nums(cand^n).
                T, _ = la.bareiss_inverse(M)
                c = la.mat_vec(T, (pows[-1] * cand).nums)
                return cand, tuple(-ci for ci in c) + (1,), (T, 1)
        raise FieldError(
            "no monogenic generator found; cannot factor primes dividing the index"
        )

    def factor_prime(self, q: int) -> list["PrimeIdeal"]:
        if q in self._prime_cache:
            return list(self._prime_cache[q])
        if self.index % q != 0:
            gen, genpoly = self.theta, self.min_poly
            to_gen = la.transpose(self._basis_num), self._basis_den
        else:
            gen, genpoly, to_gen = self._factor_generator
        factors = gfp_factor(gfp_trim(genpoly, q), q)
        primes = [PrimeIdeal(self, q, e, polys.poly_deg(g), g, idx, gen, to_gen)
                  for idx, (g, e) in enumerate(factors, start=1)]
        assert sum(P.e * P.f_deg for P in primes) == self.degree
        self._prime_cache[q] = tuple(primes)
        return primes

    def degree_one_primes(self, m: int, bound: int | None = None):
        """The primes of residue degree 1 above the rational primes
        q = 1 (mod m), q <= bound (unbounded if None), that do not divide
        disc(f), as DegreeOnePrime, in increasing q and then root r.  These
        are the primes (q, theta - r) of factor_prime(q) for the roots r
        of f mod q, found by polys.gfp_roots with no factorisation, once
        per q."""
        for q in count(m + 1, m):
            if bound is not None and q > bound:
                return
            if q in self._degree_one_cache:
                yield from self._degree_one_cache[q]
            elif is_prime(q) and self.disc_poly % q:
                # q does not divide the index, so neither does the basis
                # denominator d: b_i(r) is R_i(r) / d mod q.
                dinv = pow(self._basis_den, -1, q)
                primes = []
                for r in polys.gfp_roots(self.min_poly, q):
                    powers = [pow(r, j, q) for j in range(self.degree)]
                    primes.append(DegreeOnePrime(q, r, tuple(
                        sum(map(operator.mul, row, powers)) * dinv % q for row in self._basis_num)))
                self._degree_one_cache[q] = tuple(primes)
                yield from primes

    def prime(self, q: int, index: int = 1) -> "PrimeIdeal":
        """The index-th prime above q in the deterministic ordering."""
        primes = self.factor_prime(q)
        if not 1 <= index <= len(primes):
            raise FieldError(f"no prime {q}_{index}: only {len(primes)} above {q}")
        return primes[index - 1]

    def primes_of_norm_up_to(self, bound: int) -> list["PrimeIdeal"]:
        out = []
        for q in _primes_up_to(bound):
            for P in self.factor_prime(q):
                if P.norm <= bound:
                    out.append(P)
        out.sort(key=lambda P: (P.norm, P.q, P.index))
        return out

    def __repr__(self):
        return f"NumberField({self.label}, {list(self.min_poly)})"


def dedekind_is_maximal(f, q: int) -> bool:
    """Dedekind's criterion: is Z[theta] maximal at q?  With g the product
    of the distinct irreducible factors of f mod q (its radical) and h =
    f/g mod q, Z[theta] is maximal at q iff (g h - f)/q, g and h have no
    common factor mod q."""
    gbar = polys.gfp_radical(f, q)
    hbar = polys.gfp_divmod(f, gbar, q)[0]
    diff = polys.poly_sub(polys.poly_mul(gbar, hbar), f)
    assert all(c % q == 0 for c in diff)
    F = gfp_trim([c // q for c in diff], q)
    return polys.poly_deg(gfp_gcd(gfp_gcd(F, gbar, q), hbar, q)) <= 0


# The primes below _sieve_limit, ascending: one sieve for the module,
# extended by doubling when a larger bound is asked for.
_sieve_primes: list[int] = []
_sieve_limit = 1


def _primes_up_to(bound: int) -> list[int]:
    global _sieve_primes, _sieve_limit
    if bound > _sieve_limit:
        limit = max(bound, 2 * _sieve_limit)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _sieve_primes = [i for i in range(limit + 1) if sieve[i]]
        _sieve_limit = limit
    return _sieve_primes[: bisect_right(_sieve_primes, bound)]


def iter_primes(bound: int):
    """The primes up to bound, ascending, sieved by doubling only as far as
    they are read, so a scan that stops early never sieves to bound."""
    lo, hi = 0, 1024
    while lo < bound:
        block = _primes_up_to(min(hi, bound))
        yield from block[bisect_right(block, lo):]
        lo, hi = hi, 2 * hi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Prime ideals


class DegreeOnePrime(NamedTuple):
    """The prime (q, theta - r) of residue degree 1 above a rational prime
    q prime to disc(f), for a root r of f mod q, with w_i = b_i(r) mod q
    for the integral basis b: its residue map is one dot product."""

    q: int
    r: int
    w: tuple[int, ...]

    def residue(self, x: NFElement) -> int:
        """x mod (q, theta - r) for x = nums / den with q prime to den:
        (nums . w) den^-1 mod q, as PrimeIdeal.residue gives it."""
        return sum(map(operator.mul, x.nums, self.w)) * pow(x.den, -1, self.q) % self.q


class PrimeIdeal:
    """A prime of the field above the rational prime q, represented by the
    pair (q, g(gen)) where gen generates the order locally at q (theta
    when q does not divide the index) and g is a monic irreducible factor
    of gen's minimal polynomial mod q.  Its residue map is one integer
    matrix mod q, the residue matrix, built on first use."""

    def __init__(self, field, q, e, f_deg, gpoly, index, gen, to_gen):
        self.field = field
        self.q = q
        self.e = e
        self.f_deg = f_deg
        self.gpoly = gpoly  # over F_q, ascending coefficients
        self.index = index  # 1-based position in the deterministic ordering
        self.gen = gen
        self.to_gen = to_gen  # (T, d): gen-power coordinates T nums / (d den)
        self.norm = q**f_deg
        self._lattice = None

    @property
    def label(self) -> str:
        return f"{self.q}_{self.index}"

    @cached_property
    def residue_field(self) -> ResidueField:
        """F_q[t]/(g), built on first use, so that the primes a class
        group or unit search factors but never reduces build no fold
        table."""
        return ResidueField(self.q, self.gpoly)

    def second_generator(self) -> NFElement:
        """The element g(gen) of the two-element representation (q, g(gen))."""
        return self.lift(self.gpoly)

    def lift(self, coeffs) -> NFElement:
        """The element sum_i coeffs[i] gen^i; lifts a residue coefficient
        tuple.  gen is integral, so Horner's rule runs on the integer
        coordinates with gen's integer multiplication matrix."""
        m = self.field._mult_matrix(self.gen.nums)
        acc = [0] * self.field.degree
        for c in reversed(coeffs):
            acc = la.mat_vec(m, acc)
            acc[0] += c
        return self.field.elt(acc)

    @cached_property
    def residue_matrix(self) -> la.Matrix:
        """The f x n matrix W over F_q whose column j is the residue of b_j:
        column j of T d^-1 for to_gen = (T, d), folded by the residue field.
        d is 1 at an index divisor and divides the index elsewhere."""
        T, d = self.to_gen
        rf, dinv = self.residue_field, pow(d, -1, self.q)
        cols = [rf.elt([t * dinv for t in col]) for col in zip(*T)]
        return [[c[k] if k < len(c) else 0 for c in cols] for k in range(self.f_deg)]

    def residue(self, x: NFElement):
        """Image of x = nums / den in the residue field: the order is
        maximal, so x is integral at q exactly when q does not divide den,
        and then x mod P is (W nums) den^-1 mod q for W the residue matrix,
        as DegreeOnePrime.residue reads it with f = 1."""
        x = self.field.elt(x)
        if x.den % self.q == 0:
            raise FieldError(f"element is not integral at {self.q}")
        dinv = pow(x.den, -1, self.q)
        return self.residue_field.elt(
            [sum(map(operator.mul, row, x.nums)) * dinv for row in self.residue_matrix])

    def character(self, x: NFElement, m: int) -> int:
        """The tame character of order m | N(P) - 1 at x: the k mod m with
        r^((N(P)-1)/m) = z^k for r = x mod P and z the residue field's
        fixed generator of mu_m (Cohen, GTM 138, 1.4 and 4.8).  It is 0
        exactly when r is an m-th power.  Requires v_P(x) = 0."""
        rf = self.residue_field
        r = self.residue(x)
        if rf.is_zero(r):
            raise FieldError(f"element not coprime to {self.label}")
        return rf.dlog(rf.pow(r, (self.norm - 1) // m), rf.subgroup_generator(m), m)

    def is_unit_at(self, x: NFElement) -> bool:
        x = self.field.elt(x)
        return not x.is_zero() and self.valuation(x) == 0

    # -- ideal lattice machinery ------------------------------------------

    def lattice(self):
        """HNF basis (columns) of the ideal as a sublattice of the ring of
        integers, in integral-basis coordinates."""
        if self._lattice is None:
            self._lattice = _ideal_lattice(self.field, self.q, self.second_generator())
        return self._lattice

    @cached_property
    def _anti_uniformizer(self) -> la.Matrix:
        """The integer multiplication matrix of an element beta of
        qP^-1 outside qO (Cohen, GTM 138, Alg. 4.8.17).  As P = (q, pi),
        beta P lies in qO exactly when beta pi does, so beta is a nonzero
        vector of the F_q kernel of the multiplication matrix of pi.  Then
        beta / q has valuation -1 at P and is integral at every other
        prime above q."""
        m = self.field._mult_matrix(self.second_generator().nums)
        beta = la.fp_kernel(m, self.q)[0]
        return self.field._mult_matrix(beta)

    @property
    def inverse_uniformizer(self) -> NFElement:
        """beta / q for the beta of _anti_uniformizer (its first column):
        valuation -1 at P, integral at the other primes above q."""
        return self.field.elt([Fraction(row[0], self.q) for row in self._anti_uniformizer])

    def valuation(self, x: NFElement) -> int:
        """v_P(x) for nonzero x (possibly non-integral): with x = nums / den,
        the number of times num <- beta num / q stays integral from num =
        nums, minus e v_q(den)."""
        x = self.field.elt(x)
        if x.is_zero():
            raise FieldError("valuation of zero")
        num, den = x.nums, x.den
        q, beta = self.q, self._anti_uniformizer
        v = 0
        while True:
            num = la.mat_vec(beta, num)
            if any(c % q for c in num):
                break
            num = [c // q for c in num]
            v += 1
        while den % q == 0:
            den //= q
            v -= self.e
        return v


def tame_characters(field, gens, skip, p: int, qs, norm_bound=math.inf):
    """(P, row), row[j] the character of order p of gens[j] at P, for the
    primes P above each q in qs in turn, with q != p, P not in skip,
    N(P) = 1 mod p, N(P) <= norm_bound (tested before any character is
    read) and every generator a unit at P."""
    skip = {P.label for P in skip}
    for q in qs:
        if q == p:
            continue
        for P in field.factor_prime(q):
            if P.label in skip or (P.norm - 1) % p or P.norm > norm_bound:
                continue
            try:
                row = [P.character(g, p) for g in gens]
            except FieldError:
                continue
            yield P, row


def certify_independence(field, gens, skip, p: int):
    """(certified, aux, rows): auxiliary tame primes aux whose characters
    of order p on gens, rows[i] at aux[i], have full rank over F_p, which
    certifies gens independent mod K^{xp}.  The primes of tame_characters
    above q = 3, 5, 7, ..., 10007 (the first prime past 10^4) are read in
    order; a prime is kept when it raises the rank."""
    if not gens:
        return True, [], []
    rows, aux = [], []  # each kept row raised the rank, so it is len(rows)
    for P, row in tame_characters(field, gens, skip, p, _primes_up_to(10007)[1:]):
        if la.fp_rank(rows + [row], p) > len(rows):
            rows.append(row)
            aux.append(P)
            if len(rows) == len(gens):
                return True, aux, rows
    return False, aux, rows


def _ideal_lattice(field, q, alpha):
    """HNF column basis of the ideal (q, alpha) for integral alpha."""
    n = field.degree
    assert alpha.den == 1
    prod = field._mult_matrix(alpha.nums)
    m = [[q * int(i == j) for j in range(n)] + prod[i] for i in range(n)]
    return la.hnf_column(m)


def lattice_mul(field, lat1, lat2):
    """Product of two full-rank ideal lattices (HNF column bases), in HNF.

    A quadratic field composes the two ideals in closed form
    (_quadratic_mul).  Other degrees multiply every pair of basis vectors
    through the multiplication matrices and put the products in HNF; the
    HNF of a lattice is unique, so both routes give the same matrix."""
    if field.degree == 2:
        return _quadratic_mul(field, lat1, lat2)
    cols2 = list(zip(*lat2))
    gens = []
    for c1 in zip(*lat1):
        m = field._mult_matrix(c1)
        gens += [la.mat_vec(m, c2) for c2 in cols2]
    return la.hnf_column(la.transpose(gens))


def quadratic_trace_norm(field) -> tuple[int, int]:
    """(t, n) = (Tr omega, N omega) for the basis (1, omega) of a quadratic
    field: omega^2 = t omega - n, read off the structure constants."""
    table = field._structure
    return table[1][1][1], -table[0][1][1]


def _quadratic_triple(lat) -> tuple[int, int, int]:
    """(c, a, s) with I = c (a Z + (s + omega) Z) for an ideal lattice I of a
    quadratic field given by any basis (Cohen, GTM 138, 5.2): c generates
    the omega-coordinates of I, x v1 + y v2 = c (s + omega) for the
    extended gcd x q1 + y q2 = c of the basis's omega-coordinates, and
    c a = |det| / c is the least positive integer in I."""
    (p1, p2), (q1, q2) = lat
    c, x, y = la.xgcd(q1, q2)
    a = abs(p1 * q2 - p2 * q1) // (c * c)
    return c, a, (x * p1 + y * p2) // c % a


def _quadratic_mul(field, lat1, lat2):
    """lattice_mul in a quadratic field, by composing the triples of
    _quadratic_triple (Cohen, GTM 138, 5.4).  For J_i = a_i Z + (s_i +
    omega) Z and omega^2 = t omega - n, the four products of generators
    have omega-coordinates 0, a_1, a_2 and s_1 + s_2 + t; two extended
    gcds write their gcd as d = x (u a_1 + v a_2) + w (s_1 + s_2 + t).  So
    J_1 J_2 = d J_3 with J_3 = a_3 Z + (s_3 + omega) Z, a_3 = a_1 a_2 / d^2
    as norms multiply, and d (s_3 + omega) the products combined by x u,
    x v and w.  The HNF of c J_3 then has the columns c (g + y omega), y
    reduced mod a_3 / g, and c (a_3 / g) omega, for g = gcd(a_3, s_3) =
    e a_3 + y s_3."""
    t, n = quadratic_trace_norm(field)
    c1, a1, s1 = _quadratic_triple(lat1)
    c2, a2, s2 = _quadratic_triple(lat2)
    d1, u, v = la.xgcd(a1, a2)
    d, x, w = la.xgcd(d1, s1 + s2 + t)
    a3 = a1 * a2 // (d * d)
    s3 = (x * (u * a1 * s2 + v * a2 * s1) + w * (s1 * s2 - n)) // d % a3
    c = c1 * c2 * d
    g, _, y = la.xgcd(a3, s3)
    h = a3 // g
    return [[c * g, 0], [c * (y % h), c * h]]


def lattice_norm(lat) -> int:
    return abs(la.det(lat))


def ideal_sum_contains_one(field, lat1, lat2):
    """If lat1 + lat2 = (1), return (a, b) with a in lat1, b in lat2 and
    a + b = 1, as NFElements; else None."""
    m = [r1 + r2 for r1, r2 in zip(lat1, lat2)]
    sol = la.solve_integer(m, [1] + [0] * (field.degree - 1))
    if sol is None:
        return None
    a = field.elt(la.mat_vec(lat1, sol[: len(lat1[0])]))
    return a, field.one - a


Q = NumberField((0, 1), label="q")

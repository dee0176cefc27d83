"""Real embeddings with certified rational intervals.

Roots of the defining polynomial f come isolated with the field: the
integer cells of `polys.real_root_cells`, which `NumberField` computes
once.  Each root then lives in integers, on the grid of cells that
repeated halving of its isolating cell produces, and every interval
handed out is the cell that exact bisection would reach at the width
asked for.  A refinement runs Newton's method in fixed point, snaps the
approximation to that cell and proves the snap by two exact sign
evaluations of f; while f' may vanish on the cell, the cell is halved
instead.  Elements are enclosed by naive interval Horner on integer
numerators.  Unit independence is certified by exact tame characters
(certified_log_rank), so no logarithm and no floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import intlinalg as la
from .polys import _scaled_value, _sign_at

# Bits of fixed-point precision beyond the cell grid in a Newton snap,
# and bits of margin each doubling step of the ladder leaves for the
# curvature of f.
_GUARD_BITS = 8


class RealEmbeddings:
    """The r1 real embeddings of a number field, refinable on demand."""

    def __init__(self, field):
        self.field = field
        self._roots = [_Root(field.min_poly, *cell) for cell in field._root_cells]
        # A degree-1 polynomial's rational root is bracketed like any other
        # root; its interval is a point only if the root is a grid point.
        self.refine_all(Fraction(1, 2**20))

    @property
    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        """The rational interval (lo, hi) of each real root, ascending."""
        out = []
        for root in self._roots:
            L, H, E = root.cell(root.depth)
            out.append((Fraction(L, 1 << E), Fraction(H, 1 << E)))
        return out

    def refine_all(self, eps: Fraction):
        """Narrow every interval, as bisection does, until it is no wider
        than eps."""
        for root in self._roots:
            root.depth = root.depth_for(eps)
            root.extend(root.depth)

    def _power_numerators(self, x) -> tuple[list[int], int]:
        """Integers c and d with c / d the power-basis coordinates of x: x.nums
        times the field's integral basis as integer rows over one denominator."""
        field = self.field
        return ([sum(map(mul, x.nums, col)) for col in zip(*field._basis_num)],
                x.den * field._basis_den)

    def element_intervals(self, x, eps: Fraction | None = None):
        """Rational interval for each real embedding of the element x."""
        if eps is not None:
            self.refine_all(eps)
        nums, den = self._power_numerators(x)
        out = []
        for root in self._roots:
            L, H, E = root.cell(root.depth)
            out.append(_poly_interval(nums, den, L, H, 1 << E))
        return out

    def element_signs(self, x) -> list[int]:
        """Exact sign of each real embedding of nonzero x.

        The intervals are refined in rounds of 10 bits, from width 2^-20
        on, until no enclosure of x contains 0; the enclosures shrink to
        the conjugates of x, none of which is 0, so some round decides.
        Enclosures on nested intervals are nested, so whether a round
        decides embedding k is monotone in the round, and the first
        deciding round is found by doubling and then bisecting over the
        round count.  Every interval is left at the last round any
        embedding needed."""
        nums, _ = self._power_numerators(x)
        rounds = 0
        signs = []
        for root in self._roots:
            sign = _round_sign(root, nums, rounds)
            if sign is None:
                bad, step = rounds, 1
                while (sign := _round_sign(root, nums, bad + step)) is None:
                    bad, step = bad + step, 2 * step
                good = bad + step
                while good - bad > 1:
                    mid = (bad + good) // 2
                    s = _round_sign(root, nums, mid)
                    if s is None:
                        bad = mid
                    else:
                        good, sign = mid, s
                rounds = good
            signs.append(sign)
        if rounds:
            self.refine_all(Fraction(1, 2 ** (20 + 10 * rounds)))
        return signs


def _round_sign(root, nums, rounds: int) -> int | None:
    """Sign at the root of the polynomial with coefficients nums once the
    intervals have been refined for the given number of rounds (see
    element_signs), or None if its enclosure contains 0."""
    d = root.depth_for(Fraction(1, 2 ** (20 + 10 * rounds)))
    root.extend(d)
    L, H, E = root.cell(d)
    lo, hi = _horner_bounds(nums, L, H, 1 << E)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi == 0:
        return 0
    return None


class _Root:
    """One real root of the monic squarefree f, kept on the grid of its
    isolating cell [L0, L0 + W] / 2^E0 from polys.real_root_cells: the
    cell (j, d) of depth d is [L0 2^d + j W, L0 2^d + (j + 1) W] /
    2^(E0 + d), and halving the cell (j, d) gives the cells (2j, d + 1)
    and (2j + 1, d + 1).  Only the deepest cell known to hold the root is
    stored; a shallower one is its ancestor, of index j >> (difference in
    depth).  The interval handed out is the cell of depth self.depth.

    Only a rational root, so the integer root of a degree-1 f, can be a
    grid point.  Bisection stops on it, and the isolation has already met
    it as a midpoint of width at least 2: it is the right end of the
    isolating cell, and every deeper cell is that point.  At every other
    grid point f has a sign."""

    def __init__(self, f, L0: int, W: int, E0: int):
        self.f = tuple(f)
        self.df = tuple(i * c for i, c in enumerate(f))[1:]
        self.L0, self.W, self.E0 = L0, W, E0
        # The sign of f at the left end of every cell: f has one simple
        # root in the isolating cell and none at its left end.
        self.s = _sign_at(self.f, L0, E0)
        self.j = self.d = self.depth = 0
        self.point = _sign_at(self.f, L0 + W, E0) == 0
        self.monotone = False  # f' has no zero on the cell (j, d)

    def depth_for(self, eps) -> int:
        """The least depth, and at least self.depth, whose cells are no
        wider than eps > 0."""
        eps = Fraction(eps)
        t = -(-self.W * eps.denominator // eps.numerator)
        return max(self.depth, (t - 1).bit_length() - self.E0)

    def cell(self, d: int) -> tuple[int, int, int]:
        """(L, H, E): the cell of depth d <= self.d, or the point at any
        depth d > 0, is [L, H] / 2^E."""
        if self.point and d > 0:
            return self.L0 + self.W, self.L0 + self.W, self.E0
        lo = (self.L0 << d) + (self.j >> (self.d - d)) * self.W
        return lo, lo + self.W, self.E0 + d

    def extend(self, D: int):
        """Make the cell of depth D known."""
        while self.d < D and not self.point:
            if not self.monotone:
                L, H, E = self.cell(self.d)
                lo, hi = _horner_bounds(self.df, L, H, 1 << E)
                self.monotone = lo > 0 or hi < 0
            if self.monotone and self._snap(D):
                return
            self._halve()

    def _halve(self):
        L, H, E = self.cell(self.d)
        sm = _sign_at(self.f, L + H, E + 1)
        self.j, self.d = 2 * self.j + (sm == self.s), self.d + 1

    def _snap(self, D: int) -> bool:
        """Move to the cell of depth D from a Newton approximation of the
        root, proven by the signs of f at its ends; False when those
        signs do not confirm the cell or its two neighbours."""
        L, H, E = self.cell(self.d)
        k = D - self.d
        T = self.E0 + D
        P = T + _GUARD_BITS
        # Precisions from P down, halving while the approximation at hand
        # (the midpoint, good to about E - log2 W bits) cannot reach them
        # in one Newton step.
        good = E + 1 - self.W.bit_length()
        ladder = [P]
        while good < ladder[-1] // 2 + _GUARD_BITS < ladder[-1]:
            ladder.append(ladder[-1] // 2 + _GUARD_BITS)
        X, p = L + H, E + 1
        for q in reversed(ladder):
            X = X << (q - p) if q >= p else X >> (p - q)
            p = q
            g = _scaled_value(self.df, X, q)
            if g == 0:
                return False
            X -= _scaled_value(self.f, X, q) // g
        first = self.j << k
        j = (X - (self.L0 << (D + _GUARD_BITS))) // (self.W << _GUARD_BITS)
        j = min(max(j, first), first + (1 << k) - 1)
        for _ in range(3):
            lo = (self.L0 << D) + j * self.W
            if _sign_at(self.f, lo, T) != self.s:
                j -= 1
            elif _sign_at(self.f, lo + self.W, T) == self.s:
                j += 1
            else:
                self.j, self.d = j, D
                return True
        return False


def _horner_bounds(nums, L: int, H: int, q: int) -> tuple[int, int]:
    """Numerators over q^(len(nums) - 1) of the naive interval Horner
    enclosure of sum_i nums[i] x^i on x in [L / q, H / q], L <= H.

    The running enclosure after t coefficients has denominator q^(t-1),
    so each step multiplies by [L, H], adds the next coefficient times
    q^t, and compares numerators only.  Of the four endpoint products,
    the signs of the factors pick out the least and the greatest."""
    lo = hi = nums[-1]
    qt = 1
    for c in reversed(nums[:-1]):
        qt *= q
        if L >= 0:
            lo, hi = lo * (L if lo >= 0 else H), hi * (H if hi >= 0 else L)
        elif H <= 0:
            lo, hi = hi * (H if hi <= 0 else L), lo * (L if lo <= 0 else H)
        else:
            lo, hi = min(lo * H, hi * L), max(lo * L, hi * H)
        c *= qt
        lo += c
        hi += c
    return lo, hi


def _poly_interval(nums, den: int, L: int, H: int, q: int) -> tuple[Fraction, Fraction]:
    """Evaluate the polynomial with coefficients nums / den on the interval
    [L / q, H / q], returning a containing interval (naive interval
    Horner, one Fraction per endpoint).  Comparing numerators over one
    positive denominator orders the values, so the endpoints are those of
    the same Horner scheme run in Fraction arithmetic."""
    lo, hi = _horner_bounds(nums, L, H, q)
    d = den * q ** (len(nums) - 1)
    return Fraction(lo, d), Fraction(hi, d)


def certified_log_rank(field, units) -> bool:
    """Certify that the units of a totally real field are multiplicatively
    independent, so that their log vectors have full rank: True at the
    first l in 3, 5, 7 at which the tame characters of order l at the
    primes of field.degree_one_primes(l, 10^4) have full rank on the units
    over F_l (_full_character_rank).

    Sound because l is odd and the roots of unity are +-1: -1 = (-1)^l is
    an l-th power.  Take a relation prod u_j^a_j = +-1 with a != 0.  While
    l divides every a_j, a / l is again a relation, as the l-th roots of
    +-1 in the field are +-1; so some a_j is not divisible by l.  The
    product is then an l-th power, every character vanishes on it, and a
    mod l, not 0, lies in the kernel of the matrix, which full rank rules
    out.  Any set of primes with full rank is such a proof, so the primes
    are not kept.  Fields with complex places are refused."""
    if field.signature[1]:
        raise ValueError("certified_log_rank needs a totally real field")
    return any(_full_character_rank(field, units, ell) for ell in (3, 5, 7))


def _full_character_rank(field, units, ell: int) -> bool:
    """Whether the characters of order ell of the units reach rank
    len(units) over F_ell at the degree-1 primes P above q = 1 (mod ell),
    q <= 10^4, at which every unit is a unit, adding the row of P while
    it raises the rank.  The character at P sends x to the k mod ell with
    x^((q-1)/ell) = z^k mod P, for z the first such power other than 1 in
    the row: z generates mu_ell in F_q as ell is prime, and another z
    only scales the row."""
    if not units:
        return True
    rows: list[list[int]] = []
    for P in field.degree_one_primes(ell, 10**4):
        q = P.q
        if any(u.den % q == 0 for u in units):
            continue
        powers = [pow(P.residue(u), (q - 1) // ell, q) for u in units]
        z = next((c for c in powers if c != 1), None)
        if 0 in powers or z is None:
            continue
        logs = {pow(z, k, q): k for k in range(ell)}
        trial = rows + [[logs[c] for c in powers]]
        if la.fp_rank(trial, ell) > len(rows):
            rows = trial
            if len(rows) == len(units):
                return True
    return False

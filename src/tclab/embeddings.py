"""Real embeddings with certified rational intervals.

Roots of the defining polynomial are isolated by its Sturm sequence
(`polys.real_root_intervals`, which returns rational isolating intervals)
and refined by exact bisection.  Logs and determinants for unit-lattice
certification go through mpmath interval arithmetic, whose endpoints are
dyadic rationals, so every sign decision is rigorous.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import mpmath

from .polys import poly_eval, real_root_intervals


class RealEmbeddings:
    """The r1 real embeddings of a number field, refinable on demand."""

    def __init__(self, field):
        self.field = field
        # A degree-1 polynomial's rational root is bracketed like any other
        # root; its interval is a point only if an endpoint or a midpoint
        # hits the root exactly.
        self.intervals = [self._refine(iv, Fraction(1, 2**20))
                          for iv in real_root_intervals(field.min_poly)]
        assert len(self.intervals) == field.signature[0]

    def _sign_at(self, x: Fraction) -> int:
        v = poly_eval(self.field.min_poly, x)
        return (v > 0) - (v < 0)

    def _refine(self, iv, eps: Fraction):
        lo, hi = iv
        if lo == hi:
            return iv
        slo = self._sign_at(lo)
        if slo == 0:
            return lo, lo
        if self._sign_at(hi) == 0:
            return hi, hi
        while hi - lo > eps:
            mid = (lo + hi) / 2
            sm = self._sign_at(mid)
            if sm == 0:
                return mid, mid
            if sm == slo:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def refine_all(self, eps: Fraction):
        self.intervals = [self._refine(iv, eps) for iv in self.intervals]

    def element_intervals(self, x, eps: Fraction | None = None):
        """Rational interval for each real embedding of the element x."""
        if eps is not None:
            self.refine_all(eps)
        pc = x.power_coords()
        out = []
        for iv in self.intervals:
            out.append(_poly_interval(pc, iv))
        return out

    def element_signs(self, x) -> list[int]:
        """Exact sign of each real embedding of nonzero x.  The enclosures
        shrink to the conjugates of x, none of which is 0, so each loop
        ends."""
        signs = []
        pc = x.power_coords()
        eps = Fraction(1, 2**20)
        for k in range(len(self.intervals)):
            while True:
                lo, hi = _poly_interval(pc, self.intervals[k])
                if lo > 0:
                    signs.append(1)
                    break
                if hi < 0:
                    signs.append(-1)
                    break
                if lo == hi == 0:
                    signs.append(0)
                    break
                eps /= 2**10
                self.refine_all(eps)
        return signs


def _poly_interval(coeffs, iv):
    """Evaluate a polynomial with rational coefficients on a rational
    interval, returning a containing interval (naive interval Horner)."""
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        prods = [lo * iv[0], lo * iv[1], hi * iv[0], hi * iv[1]]
        lo, hi = min(prods) + c, max(prods) + c
    return lo, hi


def log_abs_interval(iv):
    """mpmath interval of log|x| for a rational interval not containing 0."""
    lo, hi = iv
    if lo <= 0 <= hi:
        raise ValueError("interval straddles zero")
    a, b = (lo, hi) if lo > 0 else (-hi, -lo)
    # Interval division rounds outward: take the lower end of a's
    # enclosure and the upper end of b's.
    a = mpmath.iv.mpf(a.numerator) / a.denominator
    b = mpmath.iv.mpf(b.numerator) / b.denominator
    return mpmath.iv.log(mpmath.iv.mpf([a.a, b.b]))


def interval_det_sign(mat) -> int:
    """Sign of the determinant of a matrix of mpmath intervals; 0 means
    the enclosure straddles zero (caller should refine and retry)."""
    d = _iv_det([list(r) for r in mat])
    if d.a > 0:
        return 1
    if d.b < 0:
        return -1
    return 0


def _iv_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = mpmath.iv.mpf(0)
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _iv_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def certified_log_rank(field, units, need_rank: int) -> bool:
    """Certify that the given units have multiplicatively independent log
    vectors of rank need_rank, using interval determinants on the first
    embeddings.  Returns True only when a nonzero determinant enclosure is
    found."""
    if need_rank == 0:
        return True
    emb = field.embeddings
    eps = Fraction(1, 2**40)
    # Interval arithmetic reads the precision of the mpmath.iv context,
    # which mpmath.workprec (the mp context's) leaves alone.
    prec = mpmath.iv.prec
    try:
        for _ in range(8):
            try:
                logmat = []
                for u in units:
                    ivs = emb.element_intervals(u, eps)
                    logmat.append([log_abs_interval(iv) for iv in ivs])
            except ValueError:
                eps /= 2**40
                continue
            # Any need_rank x need_rank minor with nonzero determinant will
            # do; try the leading columns first, then all column subsets.
            ncols = len(logmat[0])
            for colset in combinations(range(ncols), need_rank):
                sub = [[row[c] for c in colset] for row in logmat]
                if interval_det_sign(sub) != 0:
                    return True
            eps /= 2**40
            mpmath.iv.prec = max(prec, 200)
    finally:
        mpmath.iv.prec = prec
    return False

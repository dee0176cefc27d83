import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tclab
from tclab.numberfield import Q, NumberField


def quadratic_field(n: int) -> NumberField:
    """Q(sqrt(n)) with the maximal order, n squarefree."""
    if n % 4 == 1:
        basis = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]
        return NumberField((-n, 0, 1), integral_basis=basis, label=f"sqrt{n}")
    return NumberField((-n, 0, 1), label=f"sqrt{n}")


def fraction_inverse(m):
    """The inverse of a square matrix over Q by Gauss-Jordan elimination in
    Fractions on [m | I], each column's pivot the first nonzero entry at or
    below the current row: the oracle for the integer inverses of intlinalg.
    ZeroDivisionError if m is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            raise ZeroDivisionError("singular matrix")
        a[c], a[pr] = a[pr], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            f = a[i][c]
            if f and i != c:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run python with args in a new interpreter that imports this tclab."""
    src = os.path.dirname(os.path.dirname(tclab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


# Totally real cubics x^3 + a x^2 + b x + c as (c, b, a, 1).  Those of disc
# 81, 229, 148, 321 and 404 have class number 1; the fields of disc 1957,
# 2597 and 2777 have class groups Z/2, Z/3 and Z/2 (standard tables).
TRIVIAL_CUBICS = [((1, -3, 0, 1), 81), ((-1, -4, 0, 1), 229), ((-1, -3, 1, 1), 148),
                  ((-1, -4, 1, 1), 321), ((-1, -5, -1, 1), 404)]
CUBICS_WITH_CLASSES = [((-1, -8, -2, 1), 1957, "Z/2"), ((-1, -8, 2, 1), 2597, "Z/3"),
                       ((-9, -13, -2, 1), 2777, "Z/2")]


SQUAREFREE = [n for n in list(range(2, 50)) + [-m for m in range(1, 50)]
              if all(n % (d * d) != 0 for d in range(2, 8))]


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture(scope="session")
def rationals():
    return Q

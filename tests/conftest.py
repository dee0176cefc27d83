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


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run python with args in a new interpreter that imports this tclab."""
    src = os.path.dirname(os.path.dirname(tclab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


SQUAREFREE = [n for n in list(range(2, 50)) + [-m for m in range(1, 50)]
              if all(n % (d * d) != 0 for d in range(2, 8))]


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture(scope="session")
def rationals():
    return Q

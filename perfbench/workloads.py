"""Seeded inputs, operations and output checks for the in-process workloads.

Imported by worker.py after ``src`` is on the path.  An operation takes a
``stages`` callable and runs each library call inside ``with
stages(name):`` so that each stage is timed and capped; it returns a short
description of its result or raises WrongAnswer when an output check
fails.  The library receives only the generated inputs; the seed never
reaches it.
"""

from __future__ import annotations

import configparser
import math
import random
from fractions import Fraction
from importlib import resources

from tclab import classunit as cu
from tclab import equivariant as eq
from tclab import pipeline as pl
from tclab import selmer as sm
from tclab.fieldfile import parse_field_text
from tclab.numberfield import FieldError, NumberField, dedekind_is_maximal, is_prime

# Exceptions by which the library declines a case it cannot finish.  They
# leave the case unsolved; any other exception is a failure.
REFUSALS = (cu.UnitRankError, cu.CertificationError, FieldError, NotImplementedError)


class WrongAnswer(Exception):
    """An output check failed."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def check_units(K, ub, what: str) -> None:
    """Every fundamental unit has norm +-1 and an integral inverse."""
    for u in ub.fundamental_units:
        check(abs(u.norm()) == 1, f"unit of {what} has norm {u.norm()}")
        check(all(c.denominator == 1 for c in u.inverse().coords),
              f"unit of {what} has a non-integral inverse")


# ---------------------------------------------------------------------------
# Quadratic fields


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


def quadratic_poly(d: int) -> list[int]:
    """Monic generator of the maximal order of Q(sqrt d)."""
    return [-(d - 1) // 4, -1, 1] if d % 4 == 1 else [-d, 0, 1]


def reduced_form_count(D: int) -> int:
    """Class number of discriminant D < 0: the number of reduced primitive
    positive definite forms (a, b, c) with b^2 - 4ac = D."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


# Strata of a round: sign x half-decade of |d| (1-10^0.5, ..., 10^4.5-10^5).
# Narrow strata keep the share of cases that hit a cap nearly the same from
# seed to seed.  The order is fixed and mixes cheap and costly strata, so a
# round cut short by the end of a run leaves out the same strata whatever
# the seed.
QUAD_STRATA = [(sign, k / 2) for k in (0, 9, 4, 2, 7, 1, 8, 5, 3, 6) for sign in (1, -1)]


def quadratic_round(seed: int, round_no: int) -> list[int]:
    """One squarefree d per stratum, log-uniform inside it."""
    rng = random.Random(f"quadratic:{seed}:{round_no}")
    out = []
    for sign, lo in QUAD_STRATA:
        while True:
            m = int(10 ** rng.uniform(lo, lo + 0.5))
            if (m >= 2 or sign < 0) and _squarefree(m):
                break
        out.append(sign * m)
    return out


def quadratic_case(d: int, stages) -> str:
    with stages("field"):
        K = NumberField(quadratic_poly(d))
    with stages("class"):
        cg = cu.class_group(K)
    with stages("unit"):
        ub = cu.unit_group(K)
    check(cg.certified, f"class group of Q(sqrt {d}) not certified")
    check_units(K, ub, f"Q(sqrt {d})")
    if d < 0:
        check(ub.rank == 0, f"Q(sqrt {d}) has unit rank {ub.rank}")
        h = reduced_form_count(K.disc)
        check(cg.group.order() == h, f"h(Q(sqrt {d})) = {cg.group.order()}, forms give {h}")
    else:
        check(ub.rank == 1 and ub.fundamental_units[0] not in (K.one, -K.one),
              f"Q(sqrt {d}) has no fundamental unit")
    return str(cg.group)


# ---------------------------------------------------------------------------
# Totally real cubic fields


CUBIC_MAX_DISC = 1000


def _cubic_disc(a: int, b: int, c: int) -> int:
    return a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c


def _prime_squares(n: int) -> list[int]:
    return [q for q in range(2, math.isqrt(n) + 1) if is_prime(q) and n % (q * q) == 0]


def cubic_corpus(seed: int) -> list[tuple[int, int, int, int]]:
    """Every field x^3 + a x^2 + b x + c with a totally real, irreducible,
    Z[x]/(f)-maximal polynomial of discriminant at most CUBIC_MAX_DISC:
    one polynomial per discriminant (smallest coefficients first), in an
    order drawn from the seed."""
    by_disc: dict[int, tuple] = {}
    for a in range(-3, 4):
        for b in range(-9, 10):
            for c in range(-9, 10):
                D = _cubic_disc(a, b, c)
                if c == 0 or not 0 < D <= CUBIC_MAX_DISC:
                    continue
                if any(r * r * r + a * r * r + b * r + c == 0
                       for r in range(-abs(c), abs(c) + 1) if r and c % r == 0):
                    continue
                f = (c, b, a, 1)
                if not all(dedekind_is_maximal(f, q) for q in _prime_squares(D)):
                    continue
                size = (abs(a) + abs(b) + abs(c), f)
                if D not in by_disc or size < by_disc[D]:
                    by_disc[D] = size
    corpus = [f for _, (_, f) in sorted(by_disc.items())]
    random.Random(f"cubic:{seed}").shuffle(corpus)
    return corpus


def cubic_case(f, stages) -> str:
    with stages("field"):
        K = NumberField(list(f))
    check(K.signature == (3, 0), f"{f} is not totally real")
    with stages("unit"):
        ub = cu.unit_group(K)
    check(ub.rank == 2 and ub.regulator_nonzero_witness, f"unit rank of {f} not certified")
    check_units(K, ub, str(f))
    with stages("class"):
        cg = cu.class_group(K)
    check(cg.certified, f"class group of {f} not certified")
    return f"disc {K.disc}: {cg.group}"


# ---------------------------------------------------------------------------
# Selmer queries on warm fields


SELMER_QMAX = 200
# Quadratic fields with p | h, as (d, p).  A fixed set: drawing it from the
# seed made the cost of a run depend on which fields were drawn.
SELMER_EXTRA = [(-23, 3), (229, 3), (-21, 2), (10, 2)]


def _bundled(name: str) -> str:
    return (resources.files("tclab.data") / name).read_text()


def _query_primes(K, p):
    """Tame primes usable in S: q != p, unramified, above the Minkowski
    bound (so no class group generator) and off the support of the
    V_empty generators (so every power residue symbol is defined)."""
    v0, _, _ = sm.v_empty_generators(K, p)
    mb = K.minkowski_bound()
    out = []
    for q in range(3, SELMER_QMAX):
        if not is_prime(q) or q == p or K.disc % q == 0 or q <= mb:
            continue
        for P in K.factor_prime(q):
            if all(P.valuation(g) == 0 for g in v0):
                out.append(P)
    return out


def _layer(ini: str, L):
    """The Galois layer, twist and p of a bundled example, over the warm L."""
    cfg = configparser.ConfigParser()
    cfg.read_string(_bundled(ini))
    Q = parse_field_text(_bundled(cfg["fields"]["base"]))
    emb = [Fraction(t) for t in cfg["layer"]["embedding"].split()]
    gammas = [L.elt([Fraction(t) for t in part.split()])
              for part in cfg["layer"]["gamma"].split("/")]
    layer = eq.make_layer(Q, L, emb, gammas)
    p = cfg.getint("run", "p")
    rows = [[int(t) for t in r.split()] for r in cfg["twist"]["matrix"].split("/")]
    return layer, eq.gamma_module(p, [rows]), p


def selmer_setup() -> dict:
    sqrt5 = parse_field_text(_bundled("sqrt5.field"))
    zeta7plus = parse_field_text(_bundled("zeta7plus.field"))
    contexts = [(sqrt5, 2), (sqrt5, 3), (zeta7plus, 2), (zeta7plus, 3)]
    for d, p in SELMER_EXTRA:
        contexts.append((NumberField(quadratic_poly(d), label=f"Q(sqrt {d})"), p))
    for K, _ in contexts:
        cu.unit_group(K)
        cu.class_group(K)
    pools = [(K, p, _query_primes(K, p)) for K, p in contexts]
    layers = []
    for ini, L in (("example1.ini", sqrt5), ("example2.ini", zeta7plus)):
        layer, A, p = _layer(ini, L)
        by_q: dict[int, list] = {}
        for P in next(pool for K, pp, pool in pools if K is L and pp == p):
            by_q.setdefault(P.q, []).append(P)
        # Keep q whose primes are all usable, so orbit closures stay usable.
        qs = [q for q, Ps in sorted(by_q.items()) if len(Ps) == len(L.factor_prime(q))]
        layers.append((layer, A, p, qs))
    return {"pools": pools, "layers": layers}


# Query kinds in a fixed cycle: of every 20 queries 14 are untwisted, 3
# twisted and 3 look for preserving primes.  Contexts and |S| also cycle,
# so every run has the same mix and the seed draws only the primes.
SELMER_KIND_CYCLE = "UUUTUUPUUUTUUPUUTUPU"
SELMER_MAX_S = 8


class SelmerStream:
    """The seeded inputs of one worker's queries.  Each prime pool (and each
    layer's list of rational primes) is put in a seeded order and taken in
    consecutive slices, so every run uses every prime about equally often
    and the seed decides which primes meet in one query."""

    def __init__(self, state, rng):
        self.state = state
        self.rng = rng
        self.orders = [rng.sample(pool, len(pool)) for _, _, pool in state["pools"]]
        self.layer_orders = [rng.sample(qs, len(qs)) for *_, qs in state["layers"]]
        self.cursors: dict[int, int] = {}

    def take(self, order: list, k: int) -> list:
        start = self.cursors.get(id(order), 0)
        self.cursors[id(order)] = start + k
        return [order[(start + j) % len(order)] for j in range(k)]


def selmer_query(stream: SelmerStream, n: int, stages) -> str:
    """Query number n of the stream."""
    state, rng = stream.state, stream.rng
    kind = SELMER_KIND_CYCLE[n % len(SELMER_KIND_CYCLE)]
    if kind == "T":
        i = (n // len(SELMER_KIND_CYCLE)) % len(state["layers"])
        layer, A, p, _ = state["layers"][i]
        L = layer.L_field
        chosen = stream.take(stream.layer_orders[i], 1 + (n // (2 * len(SELMER_KIND_CYCLE))) % 3)
        V_rep = [L.factor_prime(q)[0] for q in chosen]
        T_rep = V_rep[:rng.randint(1, len(chosen))]
        T, V = layer.orbit_closure(T_rep), layer.orbit_closure(V_rep)
        with stages("sandwich"):
            sw = pl.sha_sandwich(L, p, T, V, layer=layer, A=A, T_rep=T_rep, V_rep=V_rep)
        check(not sw.certified or sw.lower <= sw.upper,
              f"twisted sandwich inverted on {L.label}: {sw.lower} > {sw.upper}")
        return f"twisted {L.label} |V|={len(V)}: [{sw.lower}, {sw.upper}]"
    i = n % len(state["pools"])
    K, p, _ = state["pools"][i]
    size = 1 + (n // len(state["pools"])) % SELMER_MAX_S
    S = sorted(stream.take(stream.orders[i], size), key=lambda P: (P.q, P.index))
    if kind == "P":
        with stages("preserving"):
            ps = pl.find_preserving_primes(K, S, p, count=2, norm_bound=2000)
        check(not ps.X or ps.verified, f"preserving primes on {K.label} not verified")
        return f"preserving {K.label} p={p} |S|={len(S)}: {len(ps.X)}"
    with stages("crosscheck"):
        rep = sm.crosscheck_rusb(K, S, p)
    check(rep["agree"], f"RusB routes disagree on {K.label}")
    with stages("verify"):
        ok = sm.selmer_basis(K, S, p).verify()
    check(ok, f"Selmer basis on {K.label} fails verify()")
    T = S[:rng.randint(1, len(S))]
    with stages("sandwich"):
        sw = pl.sha_sandwich(K, p, T, S)
    check(not sw.certified or sw.lower <= sw.upper,
          f"sandwich inverted on {K.label}: {sw.lower} > {sw.upper}")
    return f"untwisted {K.label} p={p} |S|={len(S)}: dim {rep['selmer_dim']}"

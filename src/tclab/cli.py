"""Command line front end.

Each command returns its inputs and results (reproduce also its label),
and run alone times it and wraps them in the report {schema, command,
inputs, results, wall_time_s}.  The table renderer only reads the
report, so table and JSON output can never disagree.  Exit codes: 0
success, 1 internal failure, 2 refusal (a precondition, an input out of
scope, or a search budget exhausted), 64 usage.  Refusals and failures
write a JSON error with its kind to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import classunit, equivariant as eq, pipeline as pl, rayclass as rc, selmer as sm
from .fieldfile import FieldFileError, parse_field_file
from .numberfield import FieldError, NumberField, is_prime

SCHEMA = "tclab-report/2"

EX1_GOLDEN = {
    "rcg_3_parts": ["0", "Z/3", "Z/27"],
    "rusb_twisted": [1, 1],
    "sandwich_T": {"lower": 1, "upper": 1, "certified": True},
}

EX2_GOLDEN = {
    "rcg_2_parts": ["0", "0", "Z/2 x Z/2", "Z/4 x Z/4"],
    "rusb_dims": [3, 2, 2, 0],
    "sha_dims": [0, 0, 2, 0],
    "gamma_rusb": [2, 2, 2, 0],
    "gamma_sha": [0, 0, 2, 0],
    "a_tensor_a_invariants": 2,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _data_path(name: str) -> Path:
    """The bundled file name, in the data folder next to this module.  Found
    from __file__: importlib.resources, with the zipfile and tempfile it
    imports, would cost every cold process several milliseconds."""
    return Path(__file__).with_name("data") / name


def _load_field(spec: str) -> NumberField:
    if not os.path.exists(spec):
        cand = _data_path(spec)
        if cand.is_file():
            return parse_field_file(cand)
    return parse_field_file(spec)


def parse_prime_set(field: NumberField, spec: str):
    """Comma or space separated entries: 'q' (first prime above q),
    'q:i' (i-th prime in the deterministic ordering), 'q:all'.  The one
    reader of every command's prime sets: a prime named twice is refused."""
    out = []
    for tok in spec.replace(",", " ").split():
        if ":" in tok:
            qs, sel = tok.split(":", 1)
        else:
            qs, sel = tok, "1"
        try:
            q = int(qs)
        except ValueError:
            raise FieldError(f"bad prime entry {tok!r}")
        if q < 2 or not is_prime(q):
            raise FieldError(f"{q} is not a rational prime")
        if sel == "all":
            out.extend(field.factor_prime(q))
        else:
            try:
                idx = int(sel)
            except ValueError:
                raise FieldError(f"bad selector in {tok!r}")
            out.append(field.prime(q, idx))
    if len({P.label for P in out}) < len(out):
        raise FieldError("a prime repeats in the modulus; a tame modulus is squarefree")
    return out


def _prime_p(p: int | None) -> int | None:
    """p, refused if given and not a rational prime: every command with a p needs one."""
    if p is not None and not is_prime(p):
        raise FieldError(f"p = {p} is not a prime")
    return p


def _load_layer_config(path):
    """The layer, p, twist and named prime sets of a layer config.  A file
    that lacks a section or key, has no section header, or has an entry
    that configparser cannot read or that is no number (1/0 included) is
    refused as a FieldFileError."""
    cfg = configparser.ConfigParser()
    try:
        if os.path.exists(path):
            cfg.read(path)
            base_dir = os.path.dirname(os.path.abspath(path))
        else:
            cand = _data_path(path)
            if not cand.is_file():
                raise FieldFileError(path, 0, "config not found")
            cfg.read_string(cand.read_text())
            base_dir = None
        specs = [cfg["fields"]["base"], cfg["fields"]["ext"]]
        emb = [Fraction(t) for t in cfg["layer"]["embedding"].split()]
        gammas = [[Fraction(t) for t in part.split()] for part in cfg["layer"]["gamma"].split("/")]
        p = _prime_p(cfg.getint("run", "p"))
        spec = cfg.get("twist", "matrix") if cfg.has_section("twist") else None
        primes = dict(cfg["primes"]) if cfg.has_section("primes") else {}
    except KeyError as exc:
        raise FieldFileError(path, 0, f"missing section or key {exc}") from None
    except (configparser.Error, ZeroDivisionError) as exc:
        raise FieldFileError(path, 0, f"{type(exc).__name__}: {exc}") from None

    def field_of(spec):
        if base_dir is not None and os.path.exists(os.path.join(base_dir, spec)):
            return parse_field_file(os.path.join(base_dir, spec))
        return _load_field(spec)
    K, L = map(field_of, specs)
    gammas = [L.elt(g) for g in gammas]
    layer = eq.make_layer(K, L, emb, gammas)
    twist = None
    if spec is not None:
        try:
            twist = eq.gamma_module(p, [[[int(t) for t in r.split()] for r in spec.split("/")]])
        except ValueError as exc:
            raise FieldError(f"twist matrix {spec!r}: {exc}") from None
        if not eq.is_action(layer, twist):
            raise FieldError(f"twist matrix {spec!r} is not an action of the Galois group"
                             f" of order {layer.order}")
    return {"layer": layer, "p": p, "twist": twist, "primes": primes,
            "K": K, "L": L}


# ---------------------------------------------------------------------------
# Reports


def emit_table(report) -> str:
    lines = [f"# {report['command']}"]
    res = report["results"]
    for tab in res.get("tables", []):
        lines.append("")
        lines.append(tab["title"])
        widths = [len(h) for h in tab["headers"]]
        rows = [[str(c) for c in row] for row in tab["rows"]]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(tab["headers"], widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    for k in sorted(res):
        if k == "tables":
            continue
        lines.append(f"{k}: {json.dumps(res[k], sort_keys=True, default=str)}")
    return "\n".join(lines) + "\n"


def _coords(x) -> str:
    return "[" + ", ".join(str(c) for c in x.coords) + "]"


def _resolved(primes) -> list[dict]:
    """Each resolved prime with its hnf_basis: the columns of the HNF of P
    in integral-basis coordinates, which is unique for P (Cohen, GTM 138,
    2.4.3), so it names P whatever local generator factored it."""
    return [{"label": P.label, "q": P.q, "e": P.e, "f": P.f_deg,
             "hnf_basis": [list(c) for c in zip(*P.lattice())]} for P in primes]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_field(args):
    K = _load_field(args.field)
    res = {
        "label": K.label,
        "degree": K.degree,
        "poly": [str(c) for c in K.min_poly],
        "discriminant": int(K.disc),
        "signature": [str(r) for r in K.signature],
        "minkowski_bound": K.minkowski_bound(),
    }
    return {"field": args.field}, res


def cmd_classgroup(args):
    K = _load_field(args.field)
    cg = classunit.class_group(K)
    res = {
        "group": str(cg.group),
        "order": cg.group.order(),
        "certified": cg.certified,
        "generating_primes": [P.label for P in cg.generating_primes],
    }
    return {"field": args.field}, res


def cmd_units(args):
    K = _load_field(args.field)
    ub = classunit.unit_group(K)
    res = {
        "rank": ub.rank,
        "torsion_order": ub.torsion_order,
        "torsion_gen": _coords(ub.torsion_gen),
        "fundamental_units": [_coords(u) for u in ub.fundamental_units],
        "saturated_at": list(ub.saturated_at),
        "regulator_nonzero": ub.regulator_nonzero_witness,
    }
    return {"field": args.field}, res


def cmd_rayclass(args):
    K = _load_field(args.field)
    modulus = parse_prime_set(K, args.modulus)
    rcd = rc.ray_class_p_part(K, modulus, args.p)
    res = {
        "modulus": [P.label for P in modulus],
        "p_part": str(rcd.p_group),
        "p_rank": rcd.p_group.p_rank(args.p),
        "provenance": "ray class presentation + SNF",
    }
    return {"field": args.field, "p": args.p, "modulus": args.modulus,
            "resolved": _resolved(modulus)}, res


def cmd_selmer(args):
    K = _load_field(args.field)
    S = parse_prime_set(K, args.S)
    sb = sm.selmer_basis(K, S, args.p)
    res = {
        "S": [P.label for P in S],
        "dim": sb.dim,
        "generators": [_coords(g) for g in sb.generators],
        "v0_labels": sb.v0_labels,
        "certified": sb.certified,
        "aux_primes": [P.label for P in sb.aux_primes],
        "reverified": sb.verify(),
    }
    return {"field": args.field, "p": args.p, "S": args.S, "resolved": _resolved(S)}, res


def cmd_rusb(args):
    K = _load_field(args.field)
    S = parse_prime_set(K, args.S)
    rep = sm.crosscheck_rusb(K, S, args.p)
    # Counts that come from the signature print as strings, as in `field`.
    rep["h1_route_dim"], rep["r"] = str(rep["h1_route_dim"]), str(rep["r"])
    rep["provenance"] = {
        "selmer_dim": "explicit V_S generators and local kernel",
        "h1_route_dim": "ray class p-rank formula",
    }
    return {"field": args.field, "p": args.p, "S": args.S, "resolved": _resolved(S)}, rep


def cmd_exceptional(args):
    K = _load_field(args.field)
    S = parse_prime_set(K, args.S) if args.S else []
    rep = sm.is_exceptional(K, S)
    res = {
        "condition_a": rep.condition_a,
        "witness_a": _coords(rep.witness_a) if rep.witness_a is not None else None,
        "condition_b": rep.condition_b,
        "witness_b": _coords(rep.witness_b) if rep.witness_b is not None else None,
        "condition_c": rep.condition_c,
        "per_prime_c": rep.per_prime_c,
        "exceptional": rep.exceptional,
    }
    return {"field": args.field, "S": args.S}, res


def cmd_sandwich(args):
    if args.config:
        ctx = _load_layer_config(args.config)
        L, p = ctx["L"], ctx["p"]
        T = parse_prime_set(L, args.T or ctx["primes"].get("t", ""))
        V = parse_prime_set(L, args.V or ctx["primes"].get("v", ""))
        if args.twisted:
            Tt, Vt = ctx["layer"].orbit_closure(T), ctx["layer"].orbit_closure(V)
            sw = pl.sha_sandwich(L, p, Tt, Vt, layer=ctx["layer"], A=ctx["twist"],
                                 T_rep=T, V_rep=V)
        else:
            sw = pl.sha_sandwich(L, p, T, V)
    else:
        K = _load_field(args.field)
        p = args.p
        T = parse_prime_set(K, args.T)
        V = parse_prime_set(K, args.V)
        sw = pl.sha_sandwich(K, p, T, V)
    res = {
        "T": [P.label for P in sw.T],
        "V": [P.label for P in sw.V],
        "lower": sw.lower,
        "upper": sw.upper,
        "certified": sw.certified,
        "mode": sw.mode,
    }
    return {"p": p, "T": args.T, "V": args.V, "twisted": bool(args.twisted),
            "resolved_T": _resolved(sw.T), "resolved_V": _resolved(sw.V)}, res


def cmd_orbit_check(args):
    ctx = _load_layer_config(args.config)
    L = ctx["L"]
    S = parse_prime_set(L, args.S) if args.S else []
    X = parse_prime_set(L, args.X)
    rep = pl.orbit_closure_check(ctx["layer"], ctx["layer"].orbit_closure(S), X, ctx["p"])
    return {"config": args.config, "S": args.S, "X": args.X}, rep


def cmd_search_x(args):
    if args.count < 1:
        raise FieldError(f"--count = {args.count} is not positive")
    if args.norm_bound < 2:
        raise FieldError(f"--norm-bound = {args.norm_bound} is below 2, the least norm of a prime")
    K = _load_field(args.field)
    S = parse_prime_set(K, args.S) if args.S else []
    ps = pl.find_preserving_primes(K, S, args.p, args.count, args.norm_bound)
    res = {
        "X": [P.label for P in ps.X],
        "witnesses": ps.witnesses,
        "shortfall": ps.shortfall,
        "verified": ps.verified,
    }
    return {"field": args.field, "p": args.p, "S": args.S, "count": args.count,
            "norm_bound": args.norm_bound}, res


# ---------------------------------------------------------------------------
# Reproductions


def _reproduce_example1():
    ctx = _load_layer_config("example1.ini")
    L, layer, A, p = ctx["L"], ctx["layer"], ctx["twist"], ctx["p"]
    S = parse_prime_set(L, ctx["primes"]["s"])
    T = parse_prime_set(L, ctx["primes"]["t"])
    V = parse_prime_set(L, ctx["primes"]["v"])
    rcg = [str(rc.ray_class_p_part(L, X, p).p_group) for X in (S, T, V)]
    rusb = [pl.twisted_rusb_dim(layer, sm.selmer_basis(L, X, p), A) for X in (S, T)]
    sw = pl.sha_sandwich(L, p, T, V, layer=layer, A=A)
    computed = {
        "rcg_3_parts": rcg,
        "rusb_twisted": rusb,
        "sandwich_T": {"lower": sw.lower, "upper": sw.upper, "certified": sw.certified},
    }
    return computed, EX1_GOLDEN, {
        "tables": [
            {"title": "ray class 3-parts over " + (L.label or "L"),
             "headers": ["S~", "T~", "V~"], "rows": [rcg]},
            {"title": "dim RusB_X(K, A) (twisted)",
             "headers": ["S", "T"], "rows": [rusb]},
            {"title": "Sha^2 sandwich at T (twisted)",
             "headers": ["lower", "upper", "certified"],
             "rows": [[sw.lower, sw.upper, sw.certified]]},
        ],
    }


def _sha_entry(L, p, X, V, rcg_group, rusb_dim):
    if rcg_group.order() == 1:
        return 0
    if rusb_dim == 0:
        return 0
    return pl.sha_sandwich(L, p, X, V).pinned_dim


def _reproduce_example2():
    ctx = _load_layer_config("example2.ini")
    L, layer, A, p = ctx["L"], ctx["layer"], ctx["twist"], ctx["p"]
    S = parse_prime_set(L, ctx["primes"]["s"])
    T = parse_prime_set(L, ctx["primes"]["t"])
    V = parse_prime_set(L, ctx["primes"]["v"])
    sets = [[], S, T, V]
    rcds = [rc.ray_class_p_part(L, X, p) for X in sets]
    rcg = [str(r.p_group) for r in rcds]
    # Every RusB entry by both routes: a disagreement raises CrosscheckError.
    rusb = [sm.crosscheck_rusb(L, X, p)["selmer_dim"] for X in sets]
    sha = [
        _sha_entry(L, p, sets[i], V if i == 2 else sets[i], rcds[i].p_group, rusb[i])
        for i in range(4)
    ]
    stables = [layer.orbit_closure(X) for X in sets]
    g_rusb = [pl.twisted_rusb_dim(layer, sm.selmer_basis(L, X, p), A) for X in stables]
    g_sha = []
    for i, X in enumerate(stables):
        if rcds[i].p_group.order() == 1:
            g_sha.append(0)
            continue
        sw = pl.sha_sandwich(L, p, X, stables[3] if i == 2 else X,
                             layer=layer, A=A,
                             T_rep=sets[i], V_rep=sets[3] if i == 2 else sets[i])
        g_sha.append(sw.pinned_dim)
    computed = {
        "rcg_2_parts": rcg,
        "rusb_dims": rusb,
        "sha_dims": sha,
        "gamma_rusb": g_rusb,
        "gamma_sha": g_sha,
        "a_tensor_a_invariants": eq.invariants_dim(eq.tensor(A, A)),
    }
    headers = ["empty", "S'", "T'", "V'"]
    return computed, EX2_GOLDEN, {
        "tables": [
            {"title": "ray class 2-parts over " + (L.label or "L"),
             "headers": headers, "rows": [rcg]},
            {"title": "dim RusB_X'(L, F_2)", "headers": headers, "rows": [rusb]},
            {"title": "dim Sha^2_X'(L, F_2)", "headers": headers, "rows": [sha]},
            {"title": "dim (RusB_X~(L) tensor A)^Gamma",
             "headers": ["empty", "S~", "T~", "V~"], "rows": [g_rusb]},
            {"title": "dim Sha^2_X~(L, A)^Gamma",
             "headers": ["empty", "S~", "T~", "V~"], "rows": [g_sha]},
        ],
    }


def cmd_reproduce(args):
    if args.example == "example1":
        computed, golden, extra = _reproduce_example1()
    else:
        computed, golden, extra = _reproduce_example2()
    diffs = {k: {"computed": computed[k], "golden": golden[k]}
             for k in golden if computed.get(k) != golden[k]}
    res = dict(computed)
    res.update(extra)
    res["golden_diff"] = diffs
    res["match"] = not diffs
    outcome = {"example": args.example}, res, f"reproduce {args.example}"
    if diffs:
        raise CommandFailure(outcome, f"golden mismatch: {sorted(diffs)}")
    return outcome


class CommandFailure(Exception):
    """A command that ran to the end with a wrong answer: its outcome is
    still reported, and the process exits 1."""

    def __init__(self, outcome, message):
        super().__init__(message)
        self.outcome = outcome


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> _Parser:
    ap = _Parser(prog="tclab", description="tame Selmer / ray class laboratory")
    ap.add_argument("--json", action="store_true", help="emit the JSON report")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("field", cmd_field)
    sp.add_argument("--field", required=True)
    sp = add("classgroup", cmd_classgroup)
    sp.add_argument("--field", required=True)
    sp = add("units", cmd_units)
    sp.add_argument("--field", required=True)
    sp = add("rayclass", cmd_rayclass)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--modulus", required=True)
    sp = add("selmer", cmd_selmer)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--S", default="")
    sp = add("rusb", cmd_rusb)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--S", default="")
    sp = add("exceptional", cmd_exceptional)
    sp.add_argument("--field", required=True)
    sp.add_argument("--S", default="")
    sp = add("sandwich", cmd_sandwich)
    sp.add_argument("--field")
    sp.add_argument("--p", type=int)
    sp.add_argument("--T", default="")
    sp.add_argument("--V", default="")
    sp.add_argument("--config")
    sp.add_argument("--twisted", action="store_true")
    sp = add("orbit-check", cmd_orbit_check)
    sp.add_argument("--config", required=True)
    sp.add_argument("--S", default="")
    sp.add_argument("--X", required=True)
    sp = add("search-x", cmd_search_x)
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--S", default="")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--norm-bound", type=int, default=10**4)
    sp = add("reproduce", cmd_reproduce)
    sp.add_argument("example", choices=["example1", "example2"])
    return ap


def _error_kind(exc: Exception) -> tuple[str, int]:
    """The JSON error kind and exit code of an exception from a command."""
    if isinstance(exc, (FieldError, FieldFileError, ValueError)):
        return "precondition", 2
    if isinstance(exc, NotImplementedError):
        return "out_of_scope", 2
    if isinstance(exc, (classunit.UnitRankError, classunit.CertificationError)):
        return "budget", 2
    return "internal", 1


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "sandwich" and not args.config and None in (args.field, args.p):
            raise UsageError("sandwich needs --config, or both --field and --p")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    t0 = time.time()
    try:
        _prime_p(getattr(args, "p", None))
        outcome, failure = args.fn(args), None
    except CommandFailure as exc:
        outcome, failure = exc.outcome, exc
    except Exception as exc:  # every library failure leaves as a JSON error
        kind, code = _error_kind(exc)
        reason = str(exc) if code == 2 else f"{type(exc).__name__}: {exc}"
        refusal = {"schema": SCHEMA, "command": args.command,
                   "error": {"kind": kind, "reason": reason}}
        print(json.dumps(refusal, sort_keys=True), file=sys.stderr)
        return code
    inputs, results, *label = outcome
    report = {"schema": SCHEMA, "command": label[0] if label else args.command,
              "inputs": inputs, "results": results,
              "wall_time_s": round(time.time() - t0, 3)}
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print(emit_table(report), end="")
    if failure is not None:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()

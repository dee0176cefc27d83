"""tclab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads:

- reproduce  fresh ``tclab --json reproduce example1`` / ``example2``
             processes in pairs (launch_cli.py)
- quadratic  fresh Q(sqrt d) per case: class group, unit group
- cubic      fresh totally real cubic field per case: unit group, class group
- selmer     warm fields, a seeded stream of Selmer / sandwich queries

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the public functions of each tclab module are wrapped
(tracer.py) and it carries the per-layer metrics instead.  Lines before
it give the same numbers for a reader, under the workload's own names.
Details, spans and the environment record go to ``.perfbench/``.  The
exit code is nonzero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("reproduce", "quadratic", "cubic", "selmer")
WORKERS = 3  # fresh worker processes per run, so set-up is sampled three times
REPRODUCE_CAP_S = 120.0

# Functions each workload reaches in every traced run; together they cover
# every function tracer.py wraps.  A wrapper that a stale alias bypasses
# would read zero here and fail the run.  NFElement.inverse is reached only
# through the benchmark's own unit check.
EXPECTED_CALLS = {
    "reproduce": [
        "numberfield.NumberField", "numberfield.factor_prime", "numberfield.PrimeIdeal.residue",
        "numberfield.lattice_mul", "numberfield.NFElement.mul", "numberfield.NFElement.norm",
        "polys.gfp_factor", "polys.subgroup_generator", "polys.ResidueField.pow",
        "polys.ResidueField.dlog", "intlinalg.smith_normal_form", "intlinalg.solve_integer",
        "intlinalg.fp", "intlinalg.frac", "embeddings.RealEmbeddings",
        "embeddings.element_intervals", "embeddings.certified_log_rank", "classunit.unit_group",
        "classunit.class_group", "classunit.pth_root", "rayclass.ray_class_p_part",
        "rayclass.rcg_surjection_kernel", "selmer.selmer_basis", "selmer.power_residue_class",
        "selmer.h1_context", "selmer.crosscheck_rusb", "equivariant.selmer_module",
        "equivariant.kernel_module", "equivariant.invariants_dim", "equivariant.tensor",
        "equivariant.dual", "pipeline.sha_sandwich",
    ],
    "quadratic": [
        "numberfield.NumberField", "numberfield.factor_prime", "numberfield.lattice_mul",
        "numberfield.NFElement.mul", "numberfield.NFElement.norm", "polys.gfp_factor",
        "intlinalg.smith_normal_form", "intlinalg.hnf_column", "intlinalg.solve_integer",
        "intlinalg.frac", "classunit.unit_group", "classunit.class_group",
        "classunit.principal_generator",
    ],
    "cubic": [
        "numberfield.NumberField", "numberfield.NFElement.mul", "numberfield.NFElement.norm",
        "numberfield.NFElement.inverse", "intlinalg.frac", "embeddings.RealEmbeddings",
        "embeddings.element_intervals", "embeddings.element_signs",
        "embeddings.certified_log_rank", "classunit.unit_group", "classunit.class_group",
        "classunit.pth_root",
    ],
    "selmer": [
        "numberfield.factor_prime", "numberfield.PrimeIdeal.valuation",
        "numberfield.PrimeIdeal.residue", "numberfield.NFElement.mul",
        "polys.subgroup_generator", "polys.ResidueField.pow", "polys.ResidueField.dlog",
        "intlinalg.smith_normal_form", "intlinalg.fp", "rayclass.ray_class_p_part",
        "rayclass.rcg_surjection_kernel", "selmer.selmer_basis", "selmer.power_residue_class",
        "selmer.h1_context", "selmer.crosscheck_rusb", "equivariant.selmer_module",
        "equivariant.invariants_dim", "equivariant.tensor", "equivariant.dual",
        "pipeline.sha_sandwich", "pipeline.find_preserving_primes",
    ],
}

# Names of the workload-specific figures printed for a reader.
READER_NAMES = {
    "quadratic": {"solved_per_s": "quadratic.solved_per_s", "op_p50_s": "quadratic.case_p50_s",
                  "op_tail_s": "quadratic.case_tail_s", "stage_p50_s": "quadratic.class_p50_s"},
    "cubic": {"solved_per_s": "cubic.solved_per_s", "op_p50_s": "cubic.case_p50_s",
              "op_tail_s": "cubic.case_tail_s", "stage_p50_s": "cubic.units_p50_s"},
    "selmer": {"solved_per_s": "selmer.queries_per_s", "op_p50_s": "selmer.query_p50_s",
               "op_tail_s": "selmer.query_tail_s", "stage_p50_s": "selmer.crosscheck_p50_s"},
}


class BenchError(Exception):
    pass


def tail(values):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples beyond it; the median when there are too few."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return statistics.median(v), 50.0, n
    k = n - 11
    return v[k], 100.0 * (k + 1) / n, n


def _env() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "tclab").glob("*.py")))
    return {"python": sys.version.split()[0], "sympy": version("sympy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(), "commit": commit,
            "src_tclab_lines": lines}


def _cli_process(args, cap):
    """Run one tclab command through launch_cli.py.  Returns (seconds, exit
    code or None on timeout, stdout, set-up seconds, probes), times raw
    and with the launcher's probing left out."""
    started = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "launch_cli.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - t0, None, "", None, []
    wall = time.perf_counter() - t0
    ready = probes = None
    for line in err.splitlines():
        if line.startswith("perfbench-ready "):
            ready = [float(x) for x in line.split()[1:]]
        elif line.startswith("perfbench-probes "):
            probes = [float(x) for x in line.split()[1:]]
    if ready is None or probes is None:
        return wall, proc.returncode, out, None, []
    before, after, probing = probes
    return wall - probing, proc.returncode, out, ready[0] - ready[1] - started, [before, after]


# ---------------------------------------------------------------------------
# reproduce: a closed loop with one client, one process per operation


def run_reproduce(seed, seconds, trace, tag):
    """Each example process is scaled by its own probes (taken inside it,
    before and after the command)."""
    rng = random.Random(f"reproduce:{seed}")
    setups, ops, summaries, probes = [], [], [], []
    wall = raw_wall = 0.0
    cycle = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        pair = {"label": f"cycle {cycle}", "t": 0.0, "stages": {}, "outcome": "solved",
                "stage": None, "detail": ""}
        order = ["example1", "example2"]
        rng.shuffle(order)
        for ex in order:
            args = ["--json", "reproduce", ex]
            if trace:
                summary_path = OUT / f"{tag}-{cycle}-{ex}.summary.json"
                spans_path = OUT / f"{tag}-{cycle}-{ex}.spans.json"
                args = ["--trace", str(summary_path), str(spans_path)] + args
            t, code, out, setup, own_probes = _cli_process(args, REPRODUCE_CAP_S)
            f = calibrate.scale(own_probes) if own_probes else 1.0
            probes += own_probes
            raw_wall += t
            wall += t * f
            pair["t"] += t * f
            pair["stage"] = ex
            outcome, detail = "solved", ""
            if code is None:
                outcome = "timeout"
            else:
                try:
                    match = json.loads(out)["results"]["match"]
                except (ValueError, KeyError, TypeError):
                    match = None
                if code != 0 or match is not True or setup is None:
                    outcome, detail = "wrong", f"{ex}: exit {code}, match {match}"
            if outcome == "solved":
                setups.append(setup * f)
                pair["stages"][ex] = t * f
                if trace:
                    summary = json.loads(summary_path.read_text())
                    summary["scale"] = f
                    summaries.append(summary)
            elif pair["outcome"] == "solved":
                pair["outcome"], pair["detail"] = outcome, detail
        ops.append(pair)
        cycle += 1
    return {"setups": setups, "ops": ops, "wall": wall, "raw_wall": raw_wall, "probes": probes,
            "summaries": summaries, "key_stage": "example1"}


# ---------------------------------------------------------------------------
# quadratic, cubic, selmer: worker processes


def _scaled(ops, f):
    """ops with every time multiplied by the machine-speed factor f."""
    for op in ops:
        op["t"] *= f
        op["stages"] = {k: v * f for k, v in op["stages"].items()}
        if op.get("cut"):
            op["cut"] = [op["cut"][0], op["cut"][1] * f]
    return ops


def run_workers(workload, seed, seconds, trace, tag):
    setups, ops, summaries, probes = [], [], [], []
    wall = raw_wall = 0.0
    share = seconds / WORKERS
    key_stage = None
    for index in range(WORKERS):
        spans_path = OUT / f"{tag}-w{index}.spans.json"
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index),
               str(WORKERS), repr(share), str(int(trace)), str(spans_path)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        guard = threading.Timer(share + 150.0, proc.kill)
        guard.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, err = proc.communicate()
        finally:
            guard.cancel()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not ready.startswith('{"event": "ready"') or not lines:
            raise BenchError(f"{workload} worker {index} exited {proc.returncode}: {err[-2000:]}")
        ready = json.loads(ready)
        result = json.loads(lines[-1])
        f = calibrate.scale(result["probes"])
        setups.append((setup - ready["probing"])
                      * calibrate.scale([ready["probe"], result["probes"][0]]))
        ops += _scaled(result["ops"], f)
        wall += result["wall"] * f
        raw_wall += result["wall"]
        probes += result["probes"]
        key_stage = result["key_stage"]
        if trace:
            result["trace"]["scale"] = f
            summaries.append(result["trace"])
    return {"setups": setups, "ops": ops, "wall": wall, "raw_wall": raw_wall, "probes": probes,
            "summaries": summaries, "key_stage": key_stage}


# ---------------------------------------------------------------------------
# Metrics


def count_outcomes(ops) -> dict:
    counts = {k: 0 for k in ("solved", "timeout", "refused", "wrong", "error")}
    for op in ops:
        counts[op["outcome"]] += 1
    return counts


def key_stage_times(res) -> list[float]:
    """Scaled time of the workload's key stage in each operation that
    reached it; a stage stopped by its cap counts at the time it ran."""
    out = []
    for op in res["ops"]:
        if res["key_stage"] in op["stages"]:
            out.append(op["stages"][res["key_stage"]])
        elif op.get("cut") and op["cut"][0] == res["key_stage"]:
            out.append(op["cut"][1])
    return out


def end_to_end(res) -> dict:
    ops = res["ops"]
    times = [op["t"] for op in ops]
    key = key_stage_times(res)
    if not ops or not key or not res["setups"]:
        raise BenchError("too little work measured; raise --seconds")
    tail_value, _, _ = tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(res["setups"]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ops_per_s": (len(ops) / res["wall"], "1/s"),
        "op_mean_s": (statistics.fmean(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "stage_mean_s": (statistics.fmean(key), "s"),
    }


def reader_lines(workload, res, counts) -> list[str]:
    ops = res["ops"]
    ref = statistics.fmean(res["probes"])
    lines = [f"times below are scaled to the reference machine speed: reference call "
             f"{ref * 1e3:.3f} ms measured, {calibrate.REFERENCE_S * 1e3:.3f} ms nominal "
             f"(factor {calibrate.scale(res['probes']):.4f}; raw workload wall "
             f"{res['raw_wall']:.2f} s)",
             f"{workload}.ops = {len(ops)}",
             f"{workload}.failed = {counts['wrong'] + counts['error']}  "
             f"(wrong {counts['wrong']}, error {counts['error']}; "
             f"unsolved: timeout {counts['timeout']}, refused {counts['refused']})"]
    if workload == "reproduce":
        for ex in ("example1", "example2"):
            ts = [op["stages"][ex] for op in ops if ex in op["stages"]]
            if ts:
                lines.append(f"reproduce.{ex}_s = {statistics.median(ts):.4f} s  (median of {len(ts)})")
        return lines
    names = READER_NAMES[workload]
    times = [op["t"] for op in ops]
    value, pct, n = tail(times)
    lines.append(f"{names['solved_per_s']} = {counts['solved'] / res['wall']:.4f} 1/s")
    lines.append(f"{names['op_p50_s']} = {statistics.median(times):.4f} s  (n={len(times)})")
    lines.append(f"{names['op_tail_s']} = {value:.4f} s  (p{pct:.0f} of n={n})")
    key = key_stage_times(res)
    if key:
        lines.append(f"{names['stage_p50_s']} = {statistics.median(key):.4f} s  (n={len(key)})")
    return lines


def tracer_overhead_per_call() -> float:
    """Scaled seconds a wrapper adds to one call, measured on a no-op."""
    import tracer as tracing

    t = tracing.Tracer()
    wrapped = t._wrap(tracing.FUNCTIONS[0], lambda: None)
    bare = lambda: None  # noqa: E731
    n = 50_000
    per_call = []
    for fn in (bare, wrapped):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return max(per_call[1] - per_call[0], 0.0) * calibrate.scale([calibrate.probe()])


def per_layer(workload, res) -> dict:
    import tracer as tracing

    total = tracing.merge(res["summaries"])
    missing = [fn for fn in EXPECTED_CALLS[workload] if total["calls"][fn] == 0]
    if missing:
        raise BenchError(f"traced {workload} run recorded no calls to {missing}")
    out = tracing.metrics(total)
    calls = sum(total["calls"].values())
    out["trace.wrapped_calls"] = (calls, "count")
    out["trace.aliases_patched"] = (total["patched"] // max(len(res["summaries"]), 1), "count")
    out["trace.overhead_s"] = (calls * tracer_overhead_per_call(), "s")
    out["trace.ops_per_s"] = (len(res["ops"]) / res["wall"], "1/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tclab" / "__init__.py").is_file():
        print(f"no tclab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One core for the run and every process it starts, so the machine-speed
    # probes measure the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.workload == "reproduce":
            res = run_reproduce(args.seed, args.seconds, args.trace, tag)
        else:
            res = run_workers(args.workload, args.seed, args.seconds, args.trace, tag)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for op in res["ops"]:
        if op["outcome"] in ("wrong", "error"):
            print(f"FAILED {op['label']}: {op['outcome']}: {op['detail']}", file=sys.stderr)
    try:
        metrics = per_layer(args.workload, res) if args.trace else end_to_end(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    counts = count_outcomes(res["ops"])
    failed = counts["wrong"] + counts["error"]
    env = _env()
    lines = reader_lines(args.workload, res, counts)
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("env: " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "counts": counts,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setups": res["setups"], "ops": res["ops"]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        import tracer as tracing

        metrics = {k: metrics[k] for k in tracing.per_layer_names()}
    print(json.dumps({"correct": failed == 0, "attempted": len(res["ops"]), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of tclab by wrapping its public functions from outside.

Every function listed in LAYERS is replaced by a timing wrapper in the
module that defines it, in every other tclab module that imported it
under some name (``from .numberfield import lattice_mul``), and on every
class attribute that holds it (``__rmul__ = __mul__``).  No library file
is edited.

Each call records a span (id, name, start, end, parent span).  A
function's self time is its span time minus the time of the wrapped
calls made inside it.  Aggregates (calls, self time, errors and the
argument/result ratios) are kept for every call; raw spans are kept in
memory up to a fixed number and written out at the end.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time

# layer -> [(metric name, [attribute paths inside the layer's module])]
LAYERS = {
    "numberfield": [
        ("NumberField", ["NumberField.__init__"]),
        ("factor_prime", ["NumberField.factor_prime"]),
        ("PrimeIdeal.valuation", ["PrimeIdeal.valuation"]),
        ("PrimeIdeal.residue", ["PrimeIdeal.residue"]),
        ("lattice_mul", ["lattice_mul"]),
        ("NFElement.mul", ["NFElement.__mul__"]),
        ("NFElement.norm", ["NFElement.norm"]),
        ("NFElement.inverse", ["NFElement.inverse"]),
    ],
    "polys": [
        ("gfp_factor", ["gfp_factor"]),
        ("subgroup_generator", ["ResidueField.subgroup_generator"]),
        ("ResidueField.pow", ["ResidueField.pow"]),
        ("ResidueField.dlog", ["ResidueField.dlog"]),
    ],
    "intlinalg": [
        ("smith_normal_form", ["smith_normal_form"]),
        ("hnf_column", ["hnf_column"]),
        ("solve_integer", ["solve_integer"]),
        ("fp", ["fp_rref", "fp_rank", "fp_kernel", "fp_solve"]),
        ("frac", ["frac_det", "frac_inv", "frac_solve"]),
    ],
    "embeddings": [
        ("RealEmbeddings", ["RealEmbeddings.__init__"]),
        ("element_intervals", ["RealEmbeddings.element_intervals"]),
        ("element_signs", ["RealEmbeddings.element_signs"]),
        ("certified_log_rank", ["certified_log_rank"]),
    ],
    "classunit": [
        ("unit_group", ["unit_group"]),
        ("class_group", ["class_group"]),
        ("principal_generator", ["principal_generator"]),
        ("pth_root", ["pth_root"]),
    ],
    "rayclass": [
        ("ray_class_p_part", ["ray_class_p_part"]),
        ("rcg_surjection_kernel", ["rcg_surjection_kernel"]),
    ],
    "selmer": [
        ("selmer_basis", ["selmer_basis"]),
        ("power_residue_class", ["power_residue_class"]),
        ("h1_context", ["h1_context"]),
        ("crosscheck_rusb", ["crosscheck_rusb"]),
    ],
    "equivariant": [
        ("selmer_module", ["selmer_module"]),
        ("kernel_module", ["kernel_module"]),
        ("invariants_dim", ["invariants_dim"]),
        ("tensor", ["tensor"]),
        ("dual", ["dual"]),
    ],
    "pipeline": [
        ("sha_sandwich", ["sha_sandwich"]),
        ("find_preserving_primes", ["find_preserving_primes"]),
    ],
}

FUNCTIONS = [f"{layer}.{name}" for layer, entries in LAYERS.items() for name, _ in entries]

# Ratios of useful outcomes to attempts, computed from arguments and results.
DISTINCT_KEYS = {
    # A subgroup generator depends only on the residue field and m.
    "polys.subgroup_generator": lambda args: (args[0].q, args[0].modulus, args[1]),
    "numberfield.factor_prime": lambda args: (args[0].min_poly, args[1]),
}
HIT_RATIOS = {"classunit.principal_generator"}

# Functions that make no wrapped call: their total time equals their self
# time, so only the others report total_s.
LEAVES = {
    "numberfield.NFElement.mul", "polys.gfp_factor", "polys.ResidueField.pow",
    "polys.ResidueField.dlog", "intlinalg.smith_normal_form", "intlinalg.hnf_column",
    "intlinalg.fp", "intlinalg.frac", "embeddings.RealEmbeddings", "embeddings.element_signs",
}

MAX_SPANS = 50_000


def per_layer_names() -> list[str]:
    """The per-layer metrics a traced run reports, in a fixed order."""
    out = []
    for fn in FUNCTIONS:
        out += [f"{fn}.calls", f"{fn}.self_s"]
        if fn not in LEAVES:
            out.append(f"{fn}.total_s")
    out += [f"{layer}.self_s" for layer in LAYERS]
    out += [f"{layer}.errors" for layer in LAYERS]
    out += [f"{fn}.distinct_ratio" for fn in DISTINCT_KEYS]
    out += [f"{fn}.hit_ratio" for fn in sorted(HIT_RATIOS)]
    out += ["trace.wrapped_calls", "trace.overhead_s", "trace.ops_per_s"]
    return out


class Tracer:
    def __init__(self, ignore=()):
        self.ignore = tuple(ignore)  # exception types that are not errors
        self.calls = {fn: 0 for fn in FUNCTIONS}
        self.self_s = {fn: 0.0 for fn in FUNCTIONS}
        self.total_s = {fn: 0.0 for fn in FUNCTIONS}
        self._depth = {fn: 0 for fn in FUNCTIONS}  # open spans per function
        self.errors = {layer: 0 for layer in LAYERS}
        self.distinct = {fn: set() for fn in DISTINCT_KEYS}
        self.hits = {fn: 0 for fn in HIT_RATIOS}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.patched = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn_name: str, orig):
        layer = fn_name.split(".", 1)[0]
        name_idx = FUNCTIONS.index(fn_name)
        stack = self._stack
        clock = time.perf_counter
        key_of = DISTINCT_KEYS.get(fn_name)
        count_hits = fn_name in HIT_RATIOS
        tracer = self

        depth = tracer._depth

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            depth[fn_name] += 1
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                if not isinstance(exc, tracer.ignore) and not getattr(exc, "_traced", False):
                    tracer.errors[layer] += 1
                    try:
                        exc._traced = True
                    except AttributeError:  # pragma: no cover
                        pass
                raise
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - frame[1]
                depth[fn_name] -= 1
                if not depth[fn_name]:  # outermost call: nested ones are inside dur
                    tracer.total_s[fn_name] += dur
                tracer.calls[fn_name] += 1
                tracer.self_s[fn_name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, name_idx, frame[1], end, parent))
                else:
                    tracer.spans_dropped += 1
            if key_of is not None:
                tracer.distinct[fn_name].add(key_of(args))
            if count_hits and result is not None:
                tracer.hits[fn_name] += 1
            return result

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", fn_name)
        return traced

    def install(self) -> None:
        """Wrap every listed function under every name tclab binds it to."""
        import tclab

        modules = [importlib.import_module(f"tclab.{m.name}")
                   for m in pkgutil.iter_modules(tclab.__path__)]
        classes = [obj for mod in modules for obj in vars(mod).values()
                   if isinstance(obj, type) and obj.__module__.startswith("tclab")]
        for layer, entries in LAYERS.items():
            home = importlib.import_module(f"tclab.{layer}")
            for name, paths in entries:
                for path in paths:
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(home, owner_name) if owner_name else home
                    orig = vars(owner)[attr]
                    wrapper = self._wrap(f"{layer}.{name}", orig)
                    for holder in modules + classes:
                        for key, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, key, wrapper)
                                self.patched += 1

    def reset_stack(self) -> None:
        """Drop frames left open by an interrupted operation."""
        self._stack.clear()
        for fn in self._depth:
            self._depth[fn] = 0

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Additive per-process totals; see merge() and metrics()."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "errors": self.errors,
            "distinct": {fn: len(s) for fn, s in self.distinct.items()},
            "hits": self.hits,
            "patched": self.patched,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": FUNCTIONS, "columns": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "dropped": self.spans_dropped}, fh)


def merge(summaries: list[dict]) -> dict:
    """Sum the per-process summaries of one run."""
    total = {"calls": {fn: 0 for fn in FUNCTIONS}, "self_s": {fn: 0.0 for fn in FUNCTIONS},
             "total_s": {fn: 0.0 for fn in FUNCTIONS},
             "errors": {layer: 0 for layer in LAYERS}, "distinct": {fn: 0 for fn in DISTINCT_KEYS},
             "hits": {fn: 0 for fn in HIT_RATIOS}, "patched": 0, "spans_kept": 0,
             "spans_dropped": 0}
    for s in summaries:
        scale = s.get("scale", 1.0)  # machine-speed factor, see calibrate.py
        for part in ("calls", "self_s", "total_s", "errors", "distinct", "hits"):
            f = scale if part in ("self_s", "total_s") else 1
            for k, v in s[part].items():
                total[part][k] += v * f
        for part in ("patched", "spans_kept", "spans_dropped"):
            total[part] += s[part]
    return total


def metrics(total: dict) -> dict:
    """Per-layer metrics with units, from merged summaries."""
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = (total["calls"][fn], "count")
        out[f"{fn}.self_s"] = (total["self_s"][fn], "s")
        if fn not in LEAVES:
            out[f"{fn}.total_s"] = (total["total_s"][fn], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(total["self_s"][fn] for fn in FUNCTIONS
                                      if fn.startswith(layer + ".")), "s")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (total["errors"][layer], "count")
    for fn in DISTINCT_KEYS:
        calls = total["calls"][fn]
        out[f"{fn}.distinct_ratio"] = (total["distinct"][fn] / calls if calls else 0.0, "ratio")
    for fn in sorted(HIT_RATIOS):
        calls = total["calls"][fn]
        out[f"{fn}.hit_ratio"] = (total["hits"][fn] / calls if calls else 0.0, "ratio")
    return out

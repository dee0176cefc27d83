"""One benchmark worker process: set up, run operations until a deadline,
report.

    python3 perfbench/worker.py WORKLOAD SEED INDEX STRIDE SECONDS TRACE SPANS_PATH

Prints ``{"event": "ready", ...}`` once setup is done, with a machine-speed
probe taken before set-up (run.py times process start to that line as
set-up, less the probe), then one JSON line with every operation's
outcome, the machine-speed probes taken between operations (calibrate.py)
and, when TRACE is 1, the tracer summary.  Times are raw wall seconds;
run.py scales them.  Cases are taken from the seeded stream at positions
INDEX, INDEX + STRIDE, ... so that the workers of one run share no case.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

# Per-stage caps, in scaled seconds (calibrate.py): the interval timer is
# stretched by the machine speed last measured, so a stage is stopped after
# the same amount of work however fast the machine is at the time.  Most
# stage times observed when the caps were set lie far below or far above
# them; README.md gives the observed ranges.
CAPS = {
    "quadratic": {"field": 10.0, "class": 0.5, "unit": 6.0},
    "cubic": {"field": 10.0, "unit": 10.0, "class": 0.3},
    "selmer": {"crosscheck": 20.0, "verify": 20.0, "sandwich": 20.0, "preserving": 20.0},
}
PROBE_EVERY_S = 0.2  # operation time between two machine-speed probes
# The stage whose mean is reported as stage_mean_s.
KEY_STAGE = {"quadratic": "class", "cubic": "unit", "selmer": "crosscheck"}


class CaseTimeout(BaseException):
    """Raised by the interval timer when an operation exceeds its cap."""


def _alarm(signum, frame):
    raise CaseTimeout()


class Stages:
    """Runs each stage of an operation under its own cap; records the wall
    time of finished stages, the total time spent in stages (output
    checks excluded) and the stage reached."""

    def __init__(self, caps, stretch):
        self.caps = caps
        self.stretch = stretch  # wall seconds per scaled second
        self.times: dict[str, float] = {}
        self.spent = 0.0
        self.reached = None
        self.cut = None  # (stage, seconds) of a stage stopped by its cap

    @contextmanager
    def __call__(self, name):
        self.reached = name
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.caps[name] * self.stretch)
        try:
            yield
        except CaseTimeout:
            self.cut = (name, time.perf_counter() - t0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.spent += time.perf_counter() - t0
        self.times[name] = time.perf_counter() - t0


def _setup(workload, seed):
    """Warm state built before the worker reports ready."""
    import workloads as wl

    if workload == "selmer":
        return wl.selmer_setup()
    if workload == "cubic":
        return wl.cubic_corpus(seed)
    return None


def _cases(workload, seed, index, stride, state):
    """The seeded operation stream for this worker."""
    from workloads import SelmerStream, cubic_case, quadratic_case, quadratic_round, selmer_query

    if workload == "quadratic":
        round_no = index
        while True:
            for d in quadratic_round(seed, round_no):
                yield f"d={d}", (lambda st, d=d: quadratic_case(d, st))
            round_no += stride
    elif workload == "cubic":
        corpus = state
        pos = index
        while True:
            f = corpus[pos % len(corpus)]
            yield f"f={list(f)}", (lambda st, f=f: cubic_case(f, st))
            pos += stride
    else:
        stream = SelmerStream(state, random.Random(f"selmer:{seed}:{index}"))
        n = index
        while True:
            yield f"query {n}", (lambda st, n=n: selmer_query(stream, n, st))
            n += stride


def main(argv):
    t0 = time.perf_counter()
    setup_probe = calibrate.probe()  # machine speed at set-up time
    setup_probing = time.perf_counter() - t0
    workload, seed, index, stride, seconds, trace, spans_path = argv
    seed, index, stride, seconds, trace = int(seed), int(index), int(stride), float(seconds), int(trace)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(ignore=(CaseTimeout,))
        tracer.install()
    import workloads as wl

    state = _setup(workload, seed)
    print(json.dumps({"event": "ready", "probe": setup_probe, "probing": setup_probing}), flush=True)

    signal.signal(signal.SIGALRM, _alarm)
    ops = []
    probes = [calibrate.probe()]
    probing = 0.0  # time spent in probes after t_start, left out of the wall time
    t_start = last_probe = time.perf_counter()
    for label, run in _cases(workload, seed, index, stride, state):
        now = time.perf_counter()
        if now - t_start - probing >= seconds:
            break
        if now - last_probe >= PROBE_EVERY_S:
            probes.append(calibrate.probe())
            last_probe = time.perf_counter()
            probing += last_probe - now
        stages = Stages(CAPS[workload], 1.0 / calibrate.scale(probes[-3:]))
        detail = ""
        try:
            detail = run(stages)
            outcome = "solved"
        except CaseTimeout:
            outcome = "timeout"
        except wl.WrongAnswer as exc:
            outcome, detail = "wrong", str(exc)
        except wl.REFUSALS as exc:
            outcome, detail = "refused", f"{type(exc).__name__}: {exc}"
        except Exception:  # a crash is recorded as a failed operation
            outcome, detail = "error", traceback.format_exc()[-2000:]
        if tracer is not None:
            tracer.reset_stack()
        ops.append({"label": label, "outcome": outcome, "t": stages.spent, "stage": stages.reached,
                    "stages": stages.times, "cut": stages.cut, "detail": detail[-2000:]})
    wall = time.perf_counter() - t_start - probing
    probes.append(calibrate.probe())
    result = {"event": "done", "ops": ops, "wall": wall, "probes": probes,
              "key_stage": KEY_STAGE[workload]}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

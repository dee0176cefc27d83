"""Run the tclab command line as ``tclab`` runs it, timed for the benchmark.

    python3 perfbench/launch_cli.py [--trace SUMMARY_PATH SPANS_PATH] [tclab arguments...]

Stdout and the exit code are the command's own (``tclab.cli.run``, which
``tclab.cli.main`` wraps).  Two lines go to stderr for run.py:

    perfbench-ready <wall clock once tclab.cli is imported> <seconds spent probing before>
    perfbench-probes <probe before> <probe after> <seconds spent probing in all>

The probes (calibrate.py) scale this process's times to the reference
machine speed.  With ``--trace`` the public tclab functions are wrapped
(tracer.py) and the summary and spans are written to the two paths.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv):
    t0 = time.perf_counter()
    import calibrate

    before = calibrate.probe()
    probing = time.perf_counter() - t0
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracer as tracing

        summary_path, spans_path, argv = argv[1], argv[2], argv[3:]
        tracer = tracing.Tracer()
        tracer.install()
    from tclab.cli import run

    print(f"perfbench-ready {time.time()!r} {probing!r}", file=sys.stderr, flush=True)
    code = run(argv)
    if tracer is not None:
        import json

        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(spans_path)
    t1 = time.perf_counter()
    after = calibrate.probe()
    probing += time.perf_counter() - t1
    print(f"perfbench-probes {before!r} {after!r} {probing!r}", file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
